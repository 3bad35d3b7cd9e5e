package service

import (
	"bytes"
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"reflect"
	"strconv"
	"strings"
	"testing"

	"repro/internal/audit"
	"repro/internal/jsonlite"
	"repro/internal/monitor"
)

// The README's curl walk, verbatim: the create body and the two plan bodies,
// newlines and all.
const (
	readmeCreate = `{
  "workflow": {"name":"smoke","stages":[{"id":0,"name":"s"}],
               "tasks":[{"id":0,"stage":0,"exec_time_s":10},
                        {"id":1,"stage":0,"exec_time_s":10}]},
  "policy": "wire"
}`
	readmePlan1 = `{
  "now_s":180, "interval_s":180, "charging_unit_s":900, "lag_time_s":180,
  "slots_per_instance":4, "max_instances":12,
  "tasks":[{"id":0,"stage":0,"state":"ready"},
           {"id":1,"stage":0,"state":"ready"}]
}`
	readmePlan2 = `{
  "now_s":360, "interval_s":180, "charging_unit_s":900, "lag_time_s":180,
  "slots_per_instance":4, "max_instances":12, "delta":true,
  "tasks":[{"id":1,"stage":0,"state":"running","started_at_s":200,"elapsed_s":160}]
}`
)

// oddBody is one plan request no Go client would send. seq 0 posts without
// the sequence header, as the README's first curl does.
type oddBody struct {
	what string
	seq  int64
	body string
}

// oddBodies walks the README's session through every spelling of a snapshot
// the parser accepts that AppendSnapshotJSON never writes.
func oddBodies() []oddBody {
	site := `"interval_s":180,"charging_unit_s":900,"lag_time_s":180,"slots_per_instance":4,"max_instances":12`
	deep := strings.Repeat("[", jsonlite.MaxDepth-2) + strings.Repeat("]", jsonlite.MaxDepth-2)
	return []oddBody{
		{"the README's first plan", 0, readmePlan1},
		{"the README's delta", 2, readmePlan2},
		{"legacy integer states", 3, `{"now_s":540,` + site + `,
			"tasks":[{"id":0,"stage":0,"state":2,"started_at_s":400,"elapsed_s":140},
			         {"id":1,"stage":0,"state":2,"started_at_s":200,"elapsed_s":340}],
			"instances":[{"id":1,"state":1,"slots":4,"requested_at_s":180,"active_at_s":360,"running":[0,1]}]}`},
		{"floats written 1.0 and 1e2", 4, `{"now_s":7.2e2,"interval_s":180.0,"charging_unit_s":9E+2,"lag_time_s":1.8e2,
			"slots_per_instance":4,"max_instances":12,"delta":true,
			"tasks":[{"id":0,"stage":0,"state":"completed","started_at_s":4.0e2,"completed_at_s":700.0,"exec_time_s":3e2}],
			"instances":[{"id":1,"state":"active","slots":4,"requested_at_s":1.8e2,"active_at_s":360.0,"running":[1]}],
			"recent_transfers_s":[1.0,2.5e0]}`},
		{"unknown keys holding nested values and escaped newlines", 5, `{"note":{"why":["a",{"b":null}],"text":"line one\nline two"},
			"now_s":900,` + site + `,"delta":true,
			"tasks":[{"id":1,"stage":0,"state":"completed","labels":{"k":[1,2.5,"\n"]},"started_at_s":200,"completed_at_s":880,"exec_time_s":680}],
			"instances":[{"id":1,"state":"active","slots":4,"active_at_s":360}]}`},
		{"duplicate keys", 6, `{"now_s":1,"now_s":1080,` + site + `,"delta":true,"delta":false,
			"tasks":[{"id":0,"stage":0,"state":"running","state":"completed","started_at_s":400,"completed_at_s":700,"exec_time_s":300},
			         {"id":1,"stage":0,"state":"completed","started_at_s":200,"completed_at_s":880,"exec_time_s":680}],
			"instances":[{"id":1,"state":"active","slots":4,"active_at_s":360}]}`},
		{"escaped keys", 7, `{"n\u006fw_s":1260,` + site + `,"delta":true,
			"tasks":[{"\u0069d":1,"st\u0061ge":0,"state":"completed","started_at_s":200,"completed_at_s":880,"exec_time_s":681}],
			"instances":[{"id":1,"state":"active","slots":4,"active_at_s":360}]}`},
		{"a matching workflow", 8, `{"workflow":{"name":"smoke","stages":[{"id":0,"name":"s"}],
			"tasks":[{"id":0,"stage":0,"exec_time_s":10},{"id":1,"stage":0,"exec_time_s":10}]},
			"now_s":1440,` + site + `,
			"tasks":[{"id":0,"stage":0,"state":"completed","started_at_s":400,"completed_at_s":700,"exec_time_s":300},
			         {"id":1,"stage":0,"state":"completed","started_at_s":200,"completed_at_s":880,"exec_time_s":681}],
			"instances":[{"id":1,"state":"active","slots":4,"active_at_s":360}]}`},
		{"an unknown key nested as deep as a journal record allows", 9, `{"deep":` + deep + `,"now_s":1620,` + site + `,"delta":true,"tasks":[]}`},
		{"billed keys and the delta marker repeated in other letter case", 10, `{"now_s":1800,` + site + `,"INTERVAL_S":1e-9,"Delta":true,
			"tasks":[{"id":0,"stage":0,"state":"completed","started_at_s":400,"completed_at_s":700,"exec_time_s":300},
			         {"id":1,"stage":0,"state":"completed","started_at_s":200,"completed_at_s":880,"exec_time_s":681}],
			"instances":[{"id":1,"state":"active","slots":4,"active_at_s":360}],"Instances":[]}`},
	}
}

// canonical is the body a Go client would have posted for the same snapshot.
func canonical(t testing.TB, body []byte) []byte {
	t.Helper()
	var s monitor.Snapshot
	if err := monitor.UnmarshalSnapshot(body, &s); err != nil {
		t.Fatalf("canonical: %v", err)
	}
	s.Workflow = nil
	out, err := monitor.AppendSnapshotJSON(nil, &s)
	if err != nil {
		t.Fatal(err)
	}
	return out
}

func (d *journaledShard) state(t testing.TB, id string) []byte {
	t.Helper()
	w := httptest.NewRecorder()
	d.h.ServeHTTP(w, httptest.NewRequest(http.MethodGet, "/v1/sessions/"+id+"/state", nil))
	if w.Code != http.StatusOK {
		t.Fatalf("state %s: HTTP %d %s", id, w.Code, w.Body)
	}
	return w.Body.Bytes()
}

// TestJournalHoldsOddBodiesAsPosted is the certificate for journaling plan
// bodies as posted. A daemon is fed bodies no Go client sends — the README's
// multi-line curl bodies, legacy integer states, 1.0 and 1e2 floats, unknown
// keys with nested values and escaped newlines, duplicate and escaped keys, a
// matching workflow, nesting at the limit — and a twin is fed their canonical
// encodings. Every response must match the twin's; the WAL must be one valid
// JSON line per record and audit clean; a daemon recovered from a copy must
// hold the same sequence, retry cache and state dump; and its next plan must
// be the twin's.
func TestJournalHoldsOddBodiesAsPosted(t *testing.T) {
	const id = "odd-bodies"
	odd, twin := newJournaledShard(t, t.TempDir()), newJournaledShard(t, t.TempDir())
	create := []byte(strings.Replace(readmeCreate, `"policy": "wire"`, `"policy": "wire", "tenant": "acme"`, 1))
	odd.createRaw(t, id, create)
	twin.createRaw(t, id, create)
	bodies := oddBodies()
	for _, b := range bodies {
		status, ob := odd.post(id, b.seq, []byte(b.body))
		ts, tb := twin.post(id, b.seq, canonical(t, []byte(b.body)))
		if status != http.StatusOK || ts != http.StatusOK {
			t.Fatalf("%s: HTTP %d %s; the twin HTTP %d %s", b.what, status, ob, ts, tb)
		}
		if !bytes.Equal(ob, tb) {
			t.Fatalf("%s: served\n%s\nthe twin served\n%s", b.what, ob, tb)
		}
	}

	wal := odd.wal(t, id)
	lines := bytes.SplitAfter(wal, []byte{'\n'})
	if len(lines) != len(bodies)+2 || len(lines[len(lines)-1]) != 0 {
		t.Fatalf("the WAL has %d newline-terminated record(s), want a create and %d plans", len(lines)-1, len(bodies))
	}
	for i, line := range lines[:len(lines)-1] {
		if !json.Valid(line) {
			t.Fatalf("WAL line %d is not JSON: %.200s", i+1, line)
		}
	}
	for i, b := range bodies {
		posted := `,"snapshot":` + strings.ReplaceAll(b.body, "\n", " ") + `,"response":`
		if !bytes.Contains(lines[i+1], []byte(posted)) {
			t.Fatalf("%s: the plan record does not hold the body as posted: %.200s", b.what, lines[i+1])
		}
	}
	// The auditor must bill what the daemon planned on: the twin's spend.
	rep, err := audit.Run(audit.Config{Dirs: []string{odd.dir}})
	if err != nil || !rep.Clean() {
		t.Fatalf("the auditor rejects the journal: %v %+v", err, rep)
	}
	twinRep, err := audit.Run(audit.Config{Dirs: []string{twin.dir}})
	if err != nil || !twinRep.Clean() {
		t.Fatalf("the auditor rejects the twin's journal: %v %+v", err, twinRep)
	}
	if got, want := rep.TenantSpend["acme"], twinRep.TenantSpend["acme"]; got != want || want <= 0 {
		t.Fatalf("audited spend %v units, the twin's journal %v", got, want)
	}

	copied := t.TempDir()
	if err := os.WriteFile(filepath.Join(copied, id+".wal"), wal, 0o644); err != nil {
		t.Fatal(err)
	}
	rec := newJournaledShard(t, copied)
	live, err := odd.srv.Store().Get(id)
	if err != nil {
		t.Fatal(err)
	}
	back, err := rec.srv.Store().Get(id)
	if err != nil {
		t.Fatalf("the journal did not recover: %v", err)
	}
	if live.lastSeq != back.lastSeq || !bytes.Equal(live.lastBody, back.lastBody) {
		t.Fatalf("recovered at seq %d with a %d B retry cache, the live session is at seq %d with %d B",
			back.lastSeq, len(back.lastBody), live.lastSeq, len(live.lastBody))
	}
	if got, want := rec.state(t, id), odd.state(t, id); !bytes.Equal(got, want) {
		t.Fatalf("recovered state\n%s\nlive state\n%s", firstDiff(got, want), firstDiff(want, got))
	}

	next := []byte(`{"now_s":1980,"interval_s":180,"charging_unit_s":900,"lag_time_s":180,"slots_per_instance":4,"max_instances":12,` +
		`"delta":true,"tasks":[],"instances":[{"id":1,"state":"active","slots":4,"active_at_s":360,"draining":true}]}`)
	seq := int64(len(bodies) + 1)
	rs, rb := rec.post(id, seq, next)
	ts, tb := twin.post(id, seq, next)
	if rs != http.StatusOK || ts != http.StatusOK || !bytes.Equal(rb, tb) {
		t.Fatalf("seq %d after recovery: HTTP %d %s; the twin HTTP %d %s", seq, rs, rb, ts, tb)
	}
}

// TestPlanBodyNestingFitsTheRecord holds the parser's depth limit to the
// journal: a body is refused when the record framed around it would nest
// deeper than encoding/json reads, and leaves the session as it was.
func TestPlanBodyNestingFitsTheRecord(t *testing.T) {
	const id = "too-deep"
	d := newJournaledShard(t, t.TempDir())
	d.createRaw(t, id, []byte(readmeCreate))
	if status, body := d.post(id, 1, []byte(readmePlan1)); status != http.StatusOK {
		t.Fatalf("seq 1: HTTP %d %s", status, body)
	}
	sess, err := d.srv.Store().Get(id)
	if err != nil {
		t.Fatal(err)
	}
	before := captureState(t, d, sess)
	deep := strings.Repeat("[", jsonlite.MaxDepth-1) + strings.Repeat("]", jsonlite.MaxDepth-1)
	body := []byte(`{"deep":` + deep + `,` + readmePlan2[1:])
	if !json.Valid(body) {
		t.Fatal("the body itself must be valid JSON for the test to mean anything")
	}
	if status, resp := d.post(id, 2, body); status != http.StatusBadRequest {
		t.Fatalf("a body %d levels deep: HTTP %d %s, want 400", jsonlite.MaxDepth, status, resp)
	}
	if after := captureState(t, d, sess); !reflect.DeepEqual(after, before) {
		t.Fatal("the refused body changed the session")
	}
}

// TestClientPlanLinesMatchEncoder posts a recorded Genome-L stream through
// service.Client — the first interval in full, then deltas — and requires
// every plan line of the journal to be json.Encoder's line for the snapshot
// the client sent: for Go clients, journaling the posted bytes changes
// nothing on disk.
func TestClientPlanLinesMatchEncoder(t *testing.T) {
	rs := recordStream(t, "genome-l", 1)
	dir := t.TempDir()
	_, client := newTestServer(t, Config{JournalDir: dir})
	ctx := context.Background()
	info, err := client.CreateSession(ctx, rs.createRequest())
	if err != nil {
		t.Fatal(err)
	}
	var want [][]byte
	for i, snap := range rs.snaps {
		seq := int64(i + 1)
		resp, err := client.Plan(ctx, info.ID, seq, snap)
		if err != nil {
			t.Fatalf("seq %d: %v", seq, err)
		}
		sent := snap
		if i > 0 {
			sent = deltaOf(rs.snaps[i-1], snap)
		}
		line, err := referencePlanRecord(seq, sent, resp)
		if err != nil {
			t.Fatal(err)
		}
		want = append(want, line)
	}
	data, err := os.ReadFile(filepath.Join(dir, info.ID+".wal"))
	if err != nil {
		t.Fatal(err)
	}
	lines := bytes.SplitAfter(data, []byte{'\n'})
	if len(lines) != len(want)+2 {
		t.Fatalf("the WAL has %d line(s), want a create and %d plans", len(lines)-1, len(want))
	}
	for i, w := range want {
		if got := lines[i+1]; !bytes.Equal(got, w) {
			t.Fatalf("plan line %s is not json.Encoder's line for the body the client sent\nwal:     %s\nencoder: %s",
				strconv.Itoa(i+1), firstDiff(got, w), firstDiff(w, got))
		}
	}
}
