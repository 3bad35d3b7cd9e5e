package service

import (
	"bytes"
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
	"time"

	"repro/internal/cloud"
	"repro/internal/core"
	"repro/internal/dag"
	"repro/internal/dagio"
	"repro/internal/monitor"
	"repro/internal/sim"
	"repro/internal/workloads"
)

var updateGolden = flag.Bool("update", false, "rewrite testdata/golden.wal and testdata/golden_keyed.wal from the current write path")

// goldenWAL is the checked-in session log — create, one full plan, two delta
// plans, the second plan degraded — that pins the WAL format from both sides:
// this package's write path must reproduce it byte for byte, and
// internal/audit's independent decoder reads the same file (TestGoldenWAL
// there). The other two are the same session as earlier builds wrote it —
// goldenV1WAL before the delta protocol, every plan a full snapshot;
// goldenV2WAL with deltas but before the wavefront was grouped, one prediction
// record per pending task in each response. Nothing writes those files any
// more, but journals like them are on disks and must replay. goldenKeyedWAL
// pins the create record of a catalogue workflow: key, seed and digest in
// place of the document.
const (
	goldenWAL      = "testdata/golden.wal"
	goldenV1WAL    = "testdata/golden_v1.wal"
	goldenV2WAL    = "testdata/golden_v2.wal"
	goldenKeyedWAL = "testdata/golden_keyed.wal"
	goldenSession  = "golden-session-01"
	goldenKeyedID  = "golden-keyed-01"
)

// crashOnce is a WIRE controller that panics on its at-th plan, which the
// session answers with a degraded decision.
type crashOnce struct {
	sim.Controller
	at, calls int
}

func (c *crashOnce) Plan(snap *monitor.Snapshot) sim.Decision {
	c.calls++
	if c.calls == c.at {
		panic("golden: synthetic controller crash")
	}
	return c.Controller.Plan(snap)
}

func (c *crashOnce) State() core.StateDump { return c.Controller.(stateDumper).State() }

func (c *crashOnce) Wavefront() []core.Prediction { return c.Controller.(wavefronter).Wavefront() }

// goldenSnapshots is a short hand-made run of the fan workflow: everything
// ready, the root running, the root done with the fan running.
func goldenSnapshots(wf *dag.Workflow) []*monitor.Snapshot {
	first := readySnapshot(wf)
	for i := 1; i < len(first.Tasks); i++ {
		first.Tasks[i].State = monitor.Blocked
	}
	second := *first
	second.Now = 120
	second.Tasks = append([]monitor.TaskRecord(nil), first.Tasks...)
	second.Tasks[0].State, second.Tasks[0].StartedAt, second.Tasks[0].Elapsed = monitor.Running, 70, 50
	second.Instances = []monitor.InstanceRecord{
		{ID: 0, State: cloud.Active, Slots: 2, TimeToNextCharge: 180, Running: []dag.TaskID{0}},
		{ID: 1, State: cloud.Pending, Slots: 2, RequestedAt: 60},
	}
	third := second
	third.Now = 180
	third.Tasks = append([]monitor.TaskRecord(nil), second.Tasks...)
	third.Tasks[0] = monitor.TaskRecord{ID: 0, Stage: 0, State: monitor.Completed, InputSize: second.Tasks[0].InputSize,
		StartedAt: 70, TransferObserved: true, TransferTime: 1.5, CompletedAt: 95.25, ExecTime: 23.75}
	for i := 1; i <= 4; i++ {
		third.Tasks[i].State, third.Tasks[i].ReadyAt = monitor.Ready, 95.25
	}
	third.Instances = []monitor.InstanceRecord{
		{ID: 0, State: cloud.Active, Slots: 2, TimeToNextCharge: 120},
		{ID: 1, State: cloud.Active, Slots: 2, RequestedAt: 60, ActiveAt: 120, TimeToNextCharge: 240},
	}
	third.RecentTransfers = []float64{1.5}
	return []*monitor.Snapshot{first, &second, &third}
}

// writeGoldenSession drives the golden session through a daemon journaling
// into dir and returns the WAL it wrote.
func writeGoldenSession(t *testing.T, dir string) []byte {
	t.Helper()
	create := CreateSessionRequest{
		Workflow:   dagio.Encode(fanWorkflow()),
		Controller: &ControllerSpec{MinPool: 1},
		Tenant:     "acme",
		DeadlineS:  3600,
	}
	return journalSession(t, dir, goldenSession, create, goldenSnapshots(fanWorkflow()), 2)
}

// keyedGoldenCreate is the keyed golden session's create request: a catalogue
// workflow at a seed other than the default.
var keyedGoldenCreate = CreateSessionRequest{
	WorkflowKey:  "tpch6-s",
	WorkflowSeed: 3,
	Controller:   &ControllerSpec{MinPool: 1},
	Tenant:       "acme",
}

// keyedGoldenSnapshots are two intervals of the keyed golden session: every
// root ready, then two of them running.
func keyedGoldenSnapshots(t testing.TB) []*monitor.Snapshot {
	wf, _, err := workloads.Resolve(nil, keyedGoldenCreate.WorkflowKey, keyedGoldenCreate.WorkflowSeed)
	if err != nil {
		t.Fatal(err)
	}
	first := readySnapshot(wf)
	for _, task := range wf.Tasks {
		if len(task.Deps) > 0 {
			first.Tasks[task.ID].State = monitor.Blocked
		}
	}
	second := *first
	second.Now = 120
	second.Tasks = append([]monitor.TaskRecord(nil), first.Tasks...)
	for i := 0; i < 2; i++ {
		second.Tasks[i].State, second.Tasks[i].StartedAt, second.Tasks[i].Elapsed = monitor.Running, 70, 50
	}
	second.Instances = []monitor.InstanceRecord{
		{ID: 0, State: cloud.Active, Slots: 2, TimeToNextCharge: 180, Running: []dag.TaskID{0, 1}},
		{ID: 1, State: cloud.Pending, Slots: 2, RequestedAt: 60},
	}
	return []*monitor.Snapshot{first, &second}
}

// journalSession creates session id from create through a daemon journaling
// into dir, plans snaps through a Go client — the controller crashing on the
// crashAt-th plan (0: never), which the session answers degraded — and
// returns the WAL it wrote.
func journalSession(t *testing.T, dir, id string, create CreateSessionRequest, snaps []*monitor.Snapshot, crashAt int) []byte {
	t.Helper()
	clock := func() time.Time { return time.Date(2026, 1, 2, 3, 4, 5, 0, time.UTC) }
	srv := New(Config{JournalDir: dir, ShardMode: true, clock: clock})
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	body, err := json.Marshal(create)
	if err != nil {
		t.Fatal(err)
	}
	req, err := http.NewRequest(http.MethodPost, ts.URL+"/v1/sessions", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set(SessionIDHeader, id)
	res, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	res.Body.Close()
	if res.StatusCode != http.StatusCreated {
		t.Fatalf("create: HTTP %d", res.StatusCode)
	}
	sess, err := srv.Store().Get(id)
	if err != nil {
		t.Fatal(err)
	}
	sess.mu.Lock()
	sess.ctrl = &crashOnce{Controller: sess.ctrl, at: crashAt}
	sess.mu.Unlock()

	client := NewClient(ts.URL)
	for i, snap := range snaps {
		resp, err := client.Plan(context.Background(), id, int64(i+1), snap)
		if err != nil {
			t.Fatalf("seq %d: %v", i+1, err)
		}
		if resp.Degraded != (i+1 == crashAt) {
			t.Fatalf("seq %d: degraded = %v", i+1, resp.Degraded)
		}
	}
	data, err := os.ReadFile(filepath.Join(dir, id+".wal"))
	if err != nil {
		t.Fatal(err)
	}
	return data
}

// requireGolden holds a freshly written log to the checked-in one at path,
// byte for byte, rewriting the file first under -update.
func requireGolden(t *testing.T, path string, got []byte) []byte {
	t.Helper()
	if *updateGolden {
		if err := os.WriteFile(path, got, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Fatalf("the write path no longer produces %s (rerun with -update only if the format was meant to change)\ngot:  %s\nwant: %s",
			path, firstDiff(got, want), firstDiff(want, got))
	}
	return want
}

// TestGoldenWAL holds the write path to the checked-in log, byte for byte,
// holds the plan framer to each of its plan lines, and replays it.
func TestGoldenWAL(t *testing.T) {
	want := requireGolden(t, goldenWAL, writeGoldenSession(t, t.TempDir()))
	replayGolden(t, want, []bool{false, true, true}, true)
}

// TestGoldenKeyedWAL does the same for a session created by workflow_key: its
// create record carries the key, the effective seed and the workflow digest
// and no document, and replay regenerates the workflow from them.
func TestGoldenKeyedWAL(t *testing.T) {
	snaps := keyedGoldenSnapshots(t)
	want := requireGolden(t, goldenKeyedWAL, journalSession(t, t.TempDir(), goldenKeyedID, keyedGoldenCreate, snaps, 0))

	var create walRecord
	if err := json.Unmarshal(splitLines(want)[0], &create); err != nil {
		t.Fatal(err)
	}
	wf, _, err := workloads.Resolve(nil, keyedGoldenCreate.WorkflowKey, keyedGoldenCreate.WorkflowSeed)
	if err != nil {
		t.Fatal(err)
	}
	if create.Workflow != nil || create.WorkflowKey != keyedGoldenCreate.WorkflowKey ||
		create.WorkflowSeed != keyedGoldenCreate.WorkflowSeed || create.WorkflowDigest != workloads.Digest(wf) {
		t.Fatalf("keyed create record = %+v, want key %q, seed %d, digest %s and no document",
			create, keyedGoldenCreate.WorkflowKey, keyedGoldenCreate.WorkflowSeed, workloads.Digest(wf))
	}

	dir := t.TempDir()
	if err := os.WriteFile(filepath.Join(dir, goldenKeyedID+".wal"), want, 0o644); err != nil {
		t.Fatal(err)
	}
	srv, base := newTestServer(t, Config{JournalDir: dir})
	sess, err := srv.Store().Get(goldenKeyedID)
	if err != nil {
		t.Fatalf("the keyed golden WAL did not replay: %v", err)
	}
	if sess.Workflow.Name != wf.Name || sess.Workflow.NumTasks() != wf.NumTasks() || workloads.Digest(sess.Workflow) != create.WorkflowDigest {
		t.Fatalf("replay rebuilt %s (%d tasks), want the regenerated %s (%d tasks)",
			sess.Workflow.Name, sess.Workflow.NumTasks(), wf.Name, wf.NumTasks())
	}
	tap := &bodyTap{}
	client := NewClient(base.BaseURL(), WithTransport(tap))
	if _, err := client.Plan(context.Background(), goldenKeyedID, 2, snaps[1]); err != nil {
		t.Fatal(err)
	}
	journaled, _ := walResponses(t, want)
	if want := append(bytes.Clone(journaled[1]), '\n'); !bytes.Equal(tap.last, want) {
		t.Errorf("the retried seq 2 body is not the journaled response\nbody: %s\nwal:  %s", firstDiff(tap.last, want), firstDiff(want, tap.last))
	}
	third := *snaps[1]
	third.Now = 180
	if next, err := client.Plan(context.Background(), goldenKeyedID, 3, &third); err != nil || next.Seq != 3 || next.Degraded {
		t.Fatalf("seq 3 after replay: %+v, %v", next, err)
	}
}

// TestReplayRefusesDoctoredDigest changes one digit of the keyed golden log's
// workflow digest — what a generator changed since the log was written looks
// like from the log's side. Recovery must refuse the session, name it with
// the key and the seed, count it, and leave the file as it found it.
func TestReplayRefusesDoctoredDigest(t *testing.T) {
	golden, err := os.ReadFile(goldenKeyedWAL)
	if err != nil {
		t.Fatal(err)
	}
	doctored := doctorDigest(t, golden)
	dir := t.TempDir()
	path := filepath.Join(dir, goldenKeyedID+".wal")
	if err := os.WriteFile(path, doctored, 0o644); err != nil {
		t.Fatal(err)
	}
	var logged []string
	srv := New(Config{JournalDir: dir, Logf: func(format string, args ...any) {
		logged = append(logged, fmt.Sprintf(format, args...))
	}})
	if n := srv.Store().Len(); n != 0 {
		t.Fatalf("recovered %d session(s) from a log whose workflow digest does not match", n)
	}
	if md := srv.Metrics().Dump(srv.now(), 0); md.FaultTolerance.JournalReplayFailuresTotal != 1 || md.FaultTolerance.JournalReplaysTotal != 0 {
		t.Fatalf("journal_replay_failures_total = %d, journal_replays_total = %d, want 1 and 0",
			md.FaultTolerance.JournalReplayFailuresTotal, md.FaultTolerance.JournalReplaysTotal)
	}
	named := false
	for _, line := range logged {
		named = named || strings.Contains(line, goldenKeyedID) && strings.Contains(line, `"tpch6-s" seed 3`)
	}
	if !named {
		t.Errorf("no log line names session %s, key tpch6-s and seed 3: %q", goldenKeyedID, logged)
	}
	if after, err := os.ReadFile(path); err != nil || !bytes.Equal(after, doctored) {
		t.Fatalf("the refused recovery rewrote the log (%d → %d B, err %v)", len(doctored), len(after), err)
	}
}

// doctorDigest returns a copy of a keyed log with the last digit of its
// create record's workflow digest changed.
func doctorDigest(t testing.TB, wal []byte) []byte {
	t.Helper()
	const key = `"workflow_digest":"`
	i := bytes.Index(wal, []byte(key))
	if i < 0 {
		t.Fatal("the log has no workflow digest")
	}
	out := bytes.Clone(wal)
	last := i + len(key) + 63
	if out[last] == '0' {
		out[last] = '1'
	} else {
		out[last] = '0'
	}
	return out
}

// TestGoldenV1Replays and TestGoldenV2Replays hold replay to the journals
// earlier builds wrote for the golden session. Those are read-only formats:
// their responses list predictions per task, which decodes as one-task groups
// and re-encodes in the grouped shape, so unlike golden.wal they are not
// required to survive decode and re-framing byte for byte.
func TestGoldenV1Replays(t *testing.T) {
	v1, err := os.ReadFile(goldenV1WAL)
	if err != nil {
		t.Fatal(err)
	}
	replayGolden(t, v1, []bool{false, false, false}, false)
}

func TestGoldenV2Replays(t *testing.T) {
	v2, err := os.ReadFile(goldenV2WAL)
	if err != nil {
		t.Fatal(err)
	}
	replayGolden(t, v2, []bool{false, true, true}, false)
}

// replayGolden decodes each plan line of a golden log — whose snapshots must
// be deltas exactly where wantDelta says, and which, when reframes is set,
// the plan framer must reproduce from the decoded record — and recovers a
// daemon from it: the replayed cache must answer the last interval with the
// very bytes the log recorded, and the next interval must plan.
func replayGolden(t *testing.T, golden []byte, wantDelta []bool, reframes bool) {
	t.Helper()
	lines := bytes.SplitAfter(golden, []byte{'\n'})
	if len(lines) != 5 || len(lines[4]) != 0 {
		t.Fatalf("golden WAL has %d line(s), want create + 3 plans, newline-terminated", len(lines)-1)
	}
	var last *PlanResponse
	for i, line := range lines[1:4] {
		var rec walRecord
		if err := json.Unmarshal(line, &rec); err != nil {
			t.Fatalf("plan line %d: %v", i+1, err)
		}
		if rec.Snapshot.Delta != wantDelta[i] {
			t.Errorf("plan line %d: delta = %v, want %v", i+1, rec.Snapshot.Delta, wantDelta[i])
		}
		framed, err := framedPlanRecord(rec.Seq, rec.Snapshot, rec.Response)
		if err != nil {
			t.Fatal(err)
		}
		if reframes && !bytes.Equal(framed, line) {
			t.Errorf("plan line %d does not survive decode and re-framing\ngot:  %s\nwant: %s", i+1, firstDiff(framed, line), firstDiff(line, framed))
		}
		last = rec.Response
	}

	dir := t.TempDir()
	if err := os.WriteFile(filepath.Join(dir, goldenSession+".wal"), golden, 0o644); err != nil {
		t.Fatal(err)
	}
	srv, base := newTestServer(t, Config{JournalDir: dir})
	if srv.Store().Len() != 1 {
		t.Fatalf("replayed %d session(s) from the golden WAL, want 1", srv.Store().Len())
	}
	tap := &bodyTap{}
	client := NewClient(base.BaseURL(), WithTransport(tap))
	snaps := goldenSnapshots(fanWorkflow())
	retried, err := client.Plan(context.Background(), goldenSession, 3, snaps[2])
	if err != nil {
		t.Fatal(err)
	}
	if retried.Iteration != last.Iteration || !sameDecision(retried.Decision, last.Decision) ||
		!reflect.DeepEqual(expandPredictions(retried.Predictions), expandPredictions(last.Predictions)) {
		t.Errorf("replayed cache answers seq 3 with %+v, the log recorded %+v", retried, last)
	}
	// "Verbatim" is literal: the retry is served the journaled bytes.
	journaled, _ := walResponses(t, golden)
	if want := append(bytes.Clone(journaled[2]), '\n'); !bytes.Equal(tap.last, want) {
		t.Errorf("the retried seq 3 body is not the journaled response\nbody: %s\nwal:  %s", firstDiff(tap.last, want), firstDiff(want, tap.last))
	}
	// The client now holds seq 3, so seq 4 travels as a delta against the
	// snapshot replay materialised.
	fourth := *snaps[2]
	fourth.Now = 240
	fourth.Tasks = append([]monitor.TaskRecord(nil), snaps[2].Tasks...)
	fourth.Tasks[1].State, fourth.Tasks[1].StartedAt = monitor.Running, 200
	next, err := client.Plan(context.Background(), goldenSession, 4, &fourth)
	if err != nil {
		t.Fatalf("seq 4 after replay: %v", err)
	}
	if next.Seq != 4 || next.Degraded {
		t.Errorf("seq 4 after replay: %+v", next)
	}
}

// TestKeyedCreateJournalsEffectiveSeed: a keyed create that leaves the seed
// out is generated from seed 1, and its create record says 1, so replay and
// the auditor regenerate that workflow without knowing the default.
func TestKeyedCreateJournalsEffectiveSeed(t *testing.T) {
	dir := t.TempDir()
	srv, client := newTestServer(t, Config{JournalDir: dir})
	info, err := client.CreateSession(context.Background(), CreateSessionRequest{WorkflowKey: "tpch6-s"})
	if err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(srv.journalPath(info.ID))
	if err != nil {
		t.Fatal(err)
	}
	var create walRecord
	if err := json.Unmarshal(splitLines(data)[0], &create); err != nil {
		t.Fatal(err)
	}
	wf, _, err := workloads.Resolve(nil, "tpch6-s", 1)
	if err != nil {
		t.Fatal(err)
	}
	if create.WorkflowKey != "tpch6-s" || create.WorkflowSeed != 1 || create.WorkflowDigest != workloads.Digest(wf) {
		t.Fatalf("create record journals key %q, seed %d, digest %s; want tpch6-s, 1, %s",
			create.WorkflowKey, create.WorkflowSeed, create.WorkflowDigest, workloads.Digest(wf))
	}
}
