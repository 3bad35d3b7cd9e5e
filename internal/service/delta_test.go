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
	"sync"
	"testing"
	"time"

	"repro/internal/dag"
	"repro/internal/dagio"
	"repro/internal/monitor"
	"repro/internal/workloads"
)

// recordedStream is one catalogue run as a client sees it: a private copy of
// every snapshot the simulator showed its controller and the response an
// in-process WIRE controller — the twin — gave to each.
type recordedStream struct {
	key   string
	seed  int64
	snaps []*monitor.Snapshot
	want  []*PlanResponse
}

func recordStream(t testing.TB, key string, seed int64) *recordedStream {
	t.Helper()
	rs := &recordedStream{key: key, seed: seed}
	recordPlans(t, key, seed, func(_ int64, lean *monitor.Snapshot, resp *PlanResponse) {
		rs.snaps = append(rs.snaps, lean.Clone())
		rs.want = append(rs.want, resp)
	})
	return rs
}

func (rs *recordedStream) createRequest() CreateSessionRequest {
	return CreateSessionRequest{WorkflowKey: rs.key, WorkflowSeed: rs.seed}
}

// deltaOf returns cur in delta form against prev.
func deltaOf(prev, cur *monitor.Snapshot) *monitor.Snapshot {
	d := *cur
	d.Delta = true
	d.Tasks = monitor.AppendChanged([]monitor.TaskRecord{}, prev.Tasks, cur.Tasks)
	return &d
}

// journaledShard is a shard-mode daemon driven through its handler, no
// sockets: shard mode so a test can name the session. Its clock never moves,
// so two daemons' state dumps can be compared byte for byte.
type journaledShard struct {
	srv *Server
	h   http.Handler
	dir string
}

func newJournaledShard(t testing.TB, dir string) *journaledShard {
	t.Helper()
	clock := func() time.Time { return time.Date(2026, 1, 2, 3, 4, 5, 0, time.UTC) }
	srv := New(Config{ShardMode: true, JournalDir: dir, clock: clock})
	return &journaledShard{srv: srv, h: srv.Handler(), dir: dir}
}

func (d *journaledShard) create(t testing.TB, id string, req CreateSessionRequest) *Session {
	t.Helper()
	body, err := json.Marshal(req)
	if err != nil {
		t.Fatal(err)
	}
	return d.createRaw(t, id, body)
}

func (d *journaledShard) createRaw(t testing.TB, id string, body []byte) *Session {
	t.Helper()
	r := httptest.NewRequest(http.MethodPost, "/v1/sessions", bytes.NewReader(body))
	r.Header.Set(SessionIDHeader, id)
	w := httptest.NewRecorder()
	d.h.ServeHTTP(w, r)
	if w.Code != http.StatusCreated {
		t.Fatalf("create %s: HTTP %d %s", id, w.Code, w.Body)
	}
	sess, err := d.srv.Store().Get(id)
	if err != nil {
		t.Fatal(err)
	}
	return sess
}

// post sends one raw plan body; seq 0 sends no sequence header.
func (d *journaledShard) post(id string, seq int64, body []byte) (status int, resp []byte) {
	r := httptest.NewRequest(http.MethodPost, "/v1/sessions/"+id+"/plan", bytes.NewReader(body))
	if seq != 0 {
		r.Header.Set(PlanSeqHeader, strconv.FormatInt(seq, 10))
	}
	w := httptest.NewRecorder()
	d.h.ServeHTTP(w, r)
	return w.Code, w.Body.Bytes()
}

func (d *journaledShard) postSnapshot(t testing.TB, id string, seq int64, snap *monitor.Snapshot) (int, []byte) {
	t.Helper()
	body, err := monitor.AppendSnapshotJSON(nil, snap)
	if err != nil {
		t.Fatal(err)
	}
	return d.post(id, seq, body)
}

func (d *journaledShard) wal(t testing.TB, id string) []byte {
	t.Helper()
	data, err := os.ReadFile(filepath.Join(d.dir, id+".wal"))
	if err != nil {
		t.Fatal(err)
	}
	return data
}

// requireTwin holds one served plan body to the twin's response: the same
// decision, degraded flag and prediction wavefront.
func requireTwin(t testing.TB, what string, body []byte, want *PlanResponse) {
	t.Helper()
	var got PlanResponse
	if err := got.UnmarshalJSON(body); err != nil {
		t.Fatalf("%s: %v: %s", what, err, body)
	}
	if got.Seq != want.Seq || got.Degraded != want.Degraded || !reflect.DeepEqual(got.Decision, want.Decision) ||
		!reflect.DeepEqual(got.Predictions, want.Predictions) {
		t.Fatalf("%s: served seq %d decision %+v degraded %v (%d predictions), the twin decided seq %d %+v %v (%d)",
			what, got.Seq, got.Decision, got.Degraded, len(got.Predictions), want.Seq, want.Decision, want.Degraded, len(want.Predictions))
	}
}

// walResponses returns the raw response value of every plan record.
func walResponses(t testing.TB, data []byte) (responses [][]byte, deltas int) {
	t.Helper()
	for _, line := range splitLines(data) {
		var rec struct {
			Type     string          `json:"type"`
			Snapshot json.RawMessage `json:"snapshot"`
			Response json.RawMessage `json:"response"`
		}
		if err := json.Unmarshal(line, &rec); err != nil {
			t.Fatal(err)
		}
		if rec.Type != "plan" {
			continue
		}
		responses = append(responses, rec.Response)
		if bytes.Contains(rec.Snapshot[:min(len(rec.Snapshot), 200)], []byte(`"delta":true`)) {
			deltas++
		}
	}
	return responses, deltas
}

// TestDeltaEqualsFullOnEveryCatalogueStream is the protocol's equivalence
// certificate, over every plan of all eight catalogue workflows: folding
// diff(s[i-1], s[i]) into s[i-1] gives s[i]; a daemon fed deltas serves, byte
// for byte, the bodies a daemon fed full snapshots serves, and journals the
// same response values; both agree with the in-process twin; and the two
// journals — one full record and then deltas, against all full — recover to
// the same controller state and the same exactly-once cache.
func TestDeltaEqualsFullOnEveryCatalogueStream(t *testing.T) {
	for _, key := range workloads.Keys() {
		t.Run(key, func(t *testing.T) {
			rs := recordStream(t, key, 1)
			id := "stream-" + key
			full, delta := newJournaledShard(t, t.TempDir()), newJournaledShard(t, t.TempDir())
			full.create(t, id, rs.createRequest())
			dsess := delta.create(t, id, rs.createRequest())
			for i, snap := range rs.snaps {
				seq := int64(i + 1)
				posted := snap
				if i > 0 {
					posted = deltaOf(rs.snaps[i-1], snap)
					base := rs.snaps[i-1].Clone()
					if err := base.ApplyDelta(posted); err != nil {
						t.Fatalf("seq %d: %v", seq, err)
					}
					if !reflect.DeepEqual(base, snap) {
						t.Fatalf("seq %d: apply(diff(s[i-1], s[i]), s[i-1]) != s[i] (%d changed records)", seq, len(posted.Tasks))
					}
					if err := base.ApplyDelta(posted); err != nil || !reflect.DeepEqual(base, snap) {
						t.Fatalf("seq %d: applying the delta a second time changed the snapshot (err %v)", seq, err)
					}
				}
				fs, fb := full.postSnapshot(t, id, seq, snap)
				ds, db := delta.postSnapshot(t, id, seq, posted)
				if fs != http.StatusOK || ds != http.StatusOK {
					t.Fatalf("seq %d: full body HTTP %d %s, delta body HTTP %d %s", seq, fs, fb, ds, db)
				}
				if !bytes.Equal(fb, db) {
					t.Fatalf("seq %d: the delta-fed daemon served\n%s\nthe full-fed one\n%s", seq, firstDiff(db, fb), firstDiff(fb, db))
				}
				requireTwin(t, "seq "+strconv.Itoa(i+1), db, rs.want[i])
			}
			dsess.mu.Lock()
			held := dsess.snapScratch
			held.Workflow = nil
			dsess.mu.Unlock()
			if last := rs.snaps[len(rs.snaps)-1]; !reflect.DeepEqual(&held, last) {
				t.Fatalf("after %d deltas the daemon's materialised snapshot is not the last snapshot posted", len(rs.snaps)-1)
			}

			fullWAL, deltaWAL := full.wal(t, id), delta.wal(t, id)
			fr, fd := walResponses(t, fullWAL)
			dr, dd := walResponses(t, deltaWAL)
			if fd != 0 || dd != len(rs.snaps)-1 || len(fr) != len(rs.snaps) || len(dr) != len(rs.snaps) {
				t.Fatalf("journals hold %d and %d plan records (%d and %d deltas), want %d each (0 and %d)",
					len(fr), len(dr), fd, dd, len(rs.snaps), len(rs.snaps)-1)
			}
			for i := range fr {
				if !bytes.Equal(fr[i], dr[i]) {
					t.Fatalf("seq %d: journaled responses differ", i+1)
				}
			}
			t.Logf("%-10s %2d plans: all-full WAL %8d B, full+delta WAL %8d B (%.1f×)",
				key, len(rs.snaps), len(fullWAL), len(deltaWAL), float64(len(fullWAL))/float64(len(deltaWAL)))

			recovered := func(wal []byte) *Session {
				dir := t.TempDir()
				if err := os.WriteFile(filepath.Join(dir, id+".wal"), wal, 0o644); err != nil {
					t.Fatal(err)
				}
				sess, err := New(Config{JournalDir: dir}).Store().Get(id)
				if err != nil {
					t.Fatalf("journal did not recover: %v", err)
				}
				return sess
			}
			a, b := recovered(fullWAL), recovered(deltaWAL)
			if sa, sb := a.ctrl.(stateDumper).State(), b.ctrl.(stateDumper).State(); !reflect.DeepEqual(sa, sb) {
				t.Fatalf("the all-full and the full+delta journal recover to different controller states")
			}
			if a.lastSeq != b.lastSeq || !bytes.Equal(a.lastBody, b.lastBody) || !reflect.DeepEqual(a.snapScratch, b.snapScratch) {
				t.Fatalf("the all-full and the full+delta journal recover to different caches (seq %d and %d)", a.lastSeq, b.lastSeq)
			}
		})
	}
}

// sessionState is everything a rejected request must leave alone.
type sessionState struct {
	snap    *monitor.Snapshot
	lastSeq int64
	baseOK  bool
	plans   int64
	wal     []byte
}

func captureState(t testing.TB, d *journaledShard, sess *Session) sessionState {
	t.Helper()
	sess.mu.Lock()
	defer sess.mu.Unlock()
	st := sessionState{snap: sess.snapScratch.Clone(), lastSeq: sess.lastSeq, baseOK: sess.baseOK, plans: sess.plans.Load()}
	if d.dir != "" {
		st.wal = d.wal(t, sess.ID)
	}
	return st
}

// TestRejectedPlanLeavesBaseUntouched walks every way a plan request is
// turned away — and the cached retry, which is answered without being read —
// on a session two intervals in. Each must leave the materialised snapshot,
// the sequence state and the journal exactly as they were, and the next valid
// delta must still get the twin's decision.
func TestRejectedPlanLeavesBaseUntouched(t *testing.T) {
	rs := recordStream(t, "genome-s", 1)
	if len(rs.snaps) < 4 {
		t.Fatalf("genome-s recorded %d plans, the walk needs 4", len(rs.snaps))
	}
	nTasks := len(rs.snaps[0].Tasks)
	encode := func(s *monitor.Snapshot) []byte {
		b, err := json.Marshal(s)
		if err != nil {
			t.Fatal(err)
		}
		return b
	}
	third := deltaOf(rs.snaps[1], rs.snaps[2])
	mutate := func(fn func(d *monitor.Snapshot)) []byte {
		d := *third
		d.Tasks = append([]monitor.TaskRecord(nil), third.Tasks...)
		fn(&d)
		return encode(&d)
	}
	if len(third.Tasks) < 2 {
		t.Fatalf("the third interval changes %d records, the walk needs 2", len(third.Tasks))
	}
	fullThird := func(fn func(s *monitor.Snapshot)) []byte {
		s := rs.snaps[2].Clone()
		fn(s)
		return encode(s)
	}
	valid := encode(third)
	// notJSON splices members into valid that only a scanner which counts
	// brackets instead of matching them would let through.
	notJSON := func(members string) []byte { return append([]byte("{"+members), valid[1:]...) }

	cases := []struct {
		name   string
		seq    int64
		body   []byte
		status int
		code   string
	}{
		{"not JSON", 3, []byte(`{"now_s":`), http.StatusBadRequest, "bad_request"},
		{"JSON cut off inside the records", 3, valid[:bytes.Index(valid, []byte(`"tasks":[{`))+60], http.StatusBadRequest, "bad_request"},
		{"trailing garbage", 3, append(append([]byte(nil), valid...), "{}"...), http.StatusBadRequest, "bad_request"},
		{"not JSON: brackets that do not match", 3, notJSON(`"x":[1},`), http.StatusBadRequest, "bad_request"},
		{"not JSON: a nested member without its colon", 3, notJSON(`"x":{"a" 1},`), http.StatusBadRequest, "bad_request"},
		{"not JSON: a control byte in a key", 3, notJSON("\"x\x01\":1,"), http.StatusBadRequest, "bad_request"},
		{"not JSON: a control byte in a string", 3, notJSON("\"x\":\"a\x01b\","), http.StatusBadRequest, "bad_request"},
		{"delta ids out of order", 3, mutate(func(d *monitor.Snapshot) { d.Tasks[0], d.Tasks[1] = d.Tasks[1], d.Tasks[0] }), http.StatusBadRequest, "bad_request"},
		{"delta id repeated", 3, mutate(func(d *monitor.Snapshot) { d.Tasks[1].ID = d.Tasks[0].ID }), http.StatusBadRequest, "bad_request"},
		{"delta id past the workflow", 3, mutate(func(d *monitor.Snapshot) { d.Tasks[len(d.Tasks)-1].ID = dag.TaskID(nTasks) }), http.StatusBadRequest, "bad_request"},
		{"delta id negative", 3, mutate(func(d *monitor.Snapshot) { d.Tasks[0].ID = -1 }), http.StatusBadRequest, "bad_request"},
		{"delta stage missing", 3, mutate(func(d *monitor.Snapshot) { d.Tasks[len(d.Tasks)-1].Stage = 99 }), http.StatusBadRequest, "bad_request"},
		{"delta with a zero interval", 3, mutate(func(d *monitor.Snapshot) { d.Interval = 0 }), http.StatusBadRequest, "bad_request"},
		{"full body one record short", 3, fullThird(func(s *monitor.Snapshot) { s.Tasks = s.Tasks[:nTasks-1] }), http.StatusBadRequest, "bad_request"},
		{"full body records out of place", 3, fullThird(func(s *monitor.Snapshot) { s.Tasks[3], s.Tasks[4] = s.Tasks[4], s.Tasks[3] }), http.StatusBadRequest, "bad_request"},
		{"full body stage missing", 3, fullThird(func(s *monitor.Snapshot) { s.Tasks[nTasks-1].Stage = -1 }), http.StatusBadRequest, "bad_request"},
		{"full body for another workflow", 3, fullThird(func(s *monitor.Snapshot) { s.Workflow = smallWorkflow(3) }), http.StatusBadRequest, "bad_request"},
		{"delta without a sequence number", 0, valid, http.StatusConflict, CodeBaseMismatch},
		{"delta ahead of its interval", 5, valid, http.StatusConflict, "seq_conflict"},
		{"full body behind the session", 1, encode(rs.snaps[0]), http.StatusConflict, "seq_conflict"},
		{"cached retry, body never read", 2, []byte(`{"delta":true,"tasks":[{"id":-7`), http.StatusOK, ""},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			d := newJournaledShard(t, t.TempDir())
			sess := d.create(t, "walk", rs.createRequest())
			var second []byte
			for i := 0; i < 2; i++ {
				posted := rs.snaps[i]
				if i > 0 {
					posted = deltaOf(rs.snaps[i-1], rs.snaps[i])
				}
				status, body := d.postSnapshot(t, "walk", int64(i+1), posted)
				if status != http.StatusOK {
					t.Fatalf("seq %d: HTTP %d %s", i+1, status, body)
				}
				second = body
			}
			before := captureState(t, d, sess)

			status, body := d.post("walk", tc.seq, tc.body)
			if status != tc.status {
				t.Fatalf("HTTP %d %s, want %d", status, body, tc.status)
			}
			if tc.code != "" {
				var eb ErrorBody
				if err := json.Unmarshal(body, &eb); err != nil || eb.Code != tc.code {
					t.Fatalf("error body %s, want code %s", body, tc.code)
				}
			} else if !bytes.Equal(body, second) {
				t.Fatalf("cached retry served\n%s\nthe interval was answered\n%s", firstDiff(body, second), firstDiff(second, body))
			}
			if after := captureState(t, d, sess); !reflect.DeepEqual(after, before) {
				t.Fatalf("the request changed the session: seq %d→%d, base held %v→%v, plans %d→%d, snapshot equal %v, journal %d→%d B",
					before.lastSeq, after.lastSeq, before.baseOK, after.baseOK, before.plans, after.plans,
					reflect.DeepEqual(after.snap, before.snap), len(before.wal), len(after.wal))
			}

			status, body = d.post("walk", 3, valid)
			if status != http.StatusOK {
				t.Fatalf("the valid delta after it: HTTP %d %s", status, body)
			}
			requireTwin(t, "the valid delta after it", body, rs.want[2])
		})
	}
}

// planPost is one plan request as the daemon's side of the wire saw it.
type planPost struct {
	seq   string
	delta bool
	body  []byte
}

// wireTap records every plan request a client sends and can lose the first
// response to one sequence number after the daemon has processed the request.
type wireTap struct {
	mu      sync.Mutex
	posts   []planPost
	dropSeq string
}

func (w *wireTap) RoundTrip(req *http.Request) (*http.Response, error) {
	if !strings.HasSuffix(req.URL.Path, "/plan") {
		return http.DefaultTransport.RoundTrip(req)
	}
	body, err := req.GetBody()
	if err != nil {
		return nil, err
	}
	var buf bytes.Buffer
	if _, err := buf.ReadFrom(body); err != nil {
		return nil, err
	}
	seq := req.Header.Get(PlanSeqHeader)
	w.mu.Lock()
	w.posts = append(w.posts, planPost{seq: seq, delta: bytes.Contains(buf.Bytes(), []byte(`"delta":true`)), body: buf.Bytes()})
	drop := w.dropSeq != "" && w.dropSeq == seq
	if drop {
		w.dropSeq = ""
	}
	w.mu.Unlock()
	resp, err := http.DefaultTransport.RoundTrip(req)
	if err != nil || !drop {
		return resp, err
	}
	resp.Body.Close()
	return nil, &lostResponse{}
}

type lostResponse struct{}

func (*lostResponse) Error() string { return "wire tap: response lost after delivery" }

func (w *wireTap) take() []planPost {
	w.mu.Lock()
	defer w.mu.Unlock()
	out := w.posts
	w.posts = nil
	return out
}

// TestClientDeltaProtocol drives Client.Plan against a real daemon and reads
// what it put on the wire. One Snapshot object is overwritten in place from
// interval to interval, as the simulator's is, so every subtest also checks
// that the client's copy of the acknowledged interval is its own.
func TestClientDeltaProtocol(t *testing.T) {
	rs := recordStream(t, "genome-s", 1)
	if len(rs.snaps) < 5 {
		t.Fatalf("genome-s recorded %d plans, the protocol walk needs 5", len(rs.snaps))
	}
	ctx := context.Background()
	type rig struct {
		srv  *Server
		tap  *wireTap
		c    *Client
		id   string
		live *monitor.Snapshot
	}
	setup := func(t *testing.T) *rig {
		srv, base := newTestServer(t, Config{})
		tap := &wireTap{}
		c := NewClient(base.BaseURL(), WithTransport(tap), WithRetry(retryTestPolicy()))
		info, err := c.CreateSession(ctx, rs.createRequest())
		if err != nil {
			t.Fatal(err)
		}
		return &rig{srv: srv, tap: tap, c: c, id: info.ID, live: &monitor.Snapshot{}}
	}
	// plan overwrites the shared snapshot with interval i and plans it.
	plan := func(t *testing.T, r *rig, c *Client, i int) {
		t.Helper()
		tasks := append(r.live.Tasks[:0], rs.snaps[i].Tasks...)
		*r.live = *rs.snaps[i]
		r.live.Tasks = tasks
		resp, err := c.Plan(ctx, r.id, int64(i+1), r.live)
		if err != nil {
			t.Fatalf("seq %d: %v", i+1, err)
		}
		if resp.Seq != rs.want[i].Seq || !reflect.DeepEqual(resp.Decision, rs.want[i].Decision) || !reflect.DeepEqual(resp.Predictions, rs.want[i].Predictions) {
			t.Fatalf("seq %d: served %+v, the twin decided %+v", i+1, resp.Decision, rs.want[i].Decision)
		}
	}
	shape := func(posts []planPost) string {
		var sb strings.Builder
		for _, p := range posts {
			kind := "full"
			if p.delta {
				kind = "delta"
			}
			sb.WriteString(p.seq + ":" + kind + " ")
		}
		return strings.TrimSpace(sb.String())
	}

	t.Run("first plan full, then deltas", func(t *testing.T) {
		r := setup(t)
		for i := range rs.snaps {
			plan(t, r, r.c, i)
		}
		posts := r.tap.take()
		if len(posts) != len(rs.snaps) || posts[0].delta {
			t.Fatalf("wire saw %s", shape(posts))
		}
		for i, p := range posts[1:] {
			whole, err := monitor.AppendSnapshotJSON(nil, rs.snaps[i+1])
			if err != nil {
				t.Fatal(err)
			}
			if !p.delta || len(p.body) >= len(whole) {
				t.Fatalf("seq %d went out as %d B (delta %v), the interval in full is %d B", i+2, len(p.body), p.delta, len(whole))
			}
		}
	})

	t.Run("lost response: same delta again, served from the cache", func(t *testing.T) {
		r := setup(t)
		plan(t, r, r.c, 0)
		plan(t, r, r.c, 1)
		r.tap.take()
		r.tap.dropSeq = "3"
		plan(t, r, r.c, 2)
		posts := r.tap.take()
		if shape(posts) != "3:delta 3:delta" || !bytes.Equal(posts[0].body, posts[1].body) {
			t.Fatalf("wire saw %s (bodies equal %v)", shape(posts), len(posts) == 2 && bytes.Equal(posts[0].body, posts[1].body))
		}
		if md := r.srv.Metrics().Dump(r.srv.now(), 1); md.FaultTolerance.RetriesTotal != 1 {
			t.Fatalf("daemon answered %d plan(s) from its cache, want 1", md.FaultTolerance.RetriesTotal)
		}
		plan(t, r, r.c, 3)
		if got := shape(r.tap.take()); got != "4:delta" {
			t.Fatalf("after the retry the wire saw %s", got)
		}
	})

	t.Run("fresh client mid-session posts in full", func(t *testing.T) {
		r := setup(t)
		plan(t, r, r.c, 0)
		plan(t, r, r.c, 1)
		r.tap.take()
		fresh := NewClient(r.c.BaseURL(), WithTransport(r.tap))
		plan(t, r, fresh, 2)
		plan(t, r, fresh, 3)
		if got := shape(r.tap.take()); got != "3:full 4:delta" {
			t.Fatalf("wire saw %s", got)
		}
	})

	t.Run("base_mismatch: exactly one full re-post", func(t *testing.T) {
		r := setup(t)
		plan(t, r, r.c, 0)
		plan(t, r, r.c, 1)
		r.tap.take()
		sess, err := r.srv.Store().Get(r.id)
		if err != nil {
			t.Fatal(err)
		}
		sess.mu.Lock()
		sess.baseOK = false
		sess.mu.Unlock()
		plan(t, r, r.c, 2)
		if got := shape(r.tap.take()); got != "3:delta 3:full" {
			t.Fatalf("wire saw %s", got)
		}
		if r.c.Retries() != 0 {
			t.Fatalf("the re-post was counted as %d retry attempt(s)", r.c.Retries())
		}
		plan(t, r, r.c, 3)
		if got := shape(r.tap.take()); got != "4:delta" {
			t.Fatalf("after the resync the wire saw %s", got)
		}
	})

	held := func(c *Client) int {
		c.bmu.Lock()
		defer c.bmu.Unlock()
		return len(c.bases)
	}
	t.Run("copy dropped on delete, on 404 and when done", func(t *testing.T) {
		r := setup(t)
		plan(t, r, r.c, 0)
		if held(r.c) != 1 {
			t.Fatalf("client holds %d session copies after a plan, want 1", held(r.c))
		}
		if err := r.c.DeleteSession(ctx, r.id); err != nil {
			t.Fatal(err)
		}
		if held(r.c) != 0 {
			t.Fatalf("client holds %d session copies after DeleteSession", held(r.c))
		}

		r = setup(t)
		plan(t, r, r.c, 0)
		if err := NewClient(r.c.BaseURL()).DeleteSession(ctx, r.id); err != nil {
			t.Fatal(err)
		}
		if _, err := r.c.Plan(ctx, r.id, 2, rs.snaps[1]); err == nil {
			t.Fatal("plan on a deleted session succeeded")
		}
		if held(r.c) != 0 {
			t.Fatalf("client holds %d session copies after a 404", held(r.c))
		}

		r = setup(t)
		plan(t, r, r.c, 0)
		done := rs.snaps[1].Clone()
		for i := range done.Tasks {
			done.Tasks[i].State = monitor.Completed
		}
		if _, err := r.c.Plan(ctx, r.id, 2, done); err != nil {
			t.Fatal(err)
		}
		if held(r.c) != 0 {
			t.Fatalf("client holds %d session copies after the workflow finished", held(r.c))
		}
	})

	t.Run("failed plan keeps the acknowledged copy", func(t *testing.T) {
		r := setup(t)
		plan(t, r, r.c, 0)
		bad := rs.snaps[1].Clone()
		bad.Interval = 0
		if _, err := r.c.Plan(ctx, r.id, 2, bad); err == nil {
			t.Fatal("a snapshot with a zero interval was planned")
		}
		r.tap.take()
		plan(t, r, r.c, 1)
		if got := shape(r.tap.take()); got != "2:delta" {
			t.Fatalf("after a rejected plan the wire saw %s", got)
		}
	})
}

// TestReplayDeltaWithoutBaseFails cuts the middle interval out of the golden
// log. Its last record is a delta against the interval that is gone: recovery
// must refuse the session, say so, count it, and leave the file as it found it
// — not fold the delta into the first interval's snapshot and not cut the log
// as if the record were a torn tail.
func TestReplayDeltaWithoutBaseFails(t *testing.T) {
	golden, err := os.ReadFile(goldenWAL)
	if err != nil {
		t.Fatal(err)
	}
	lines := bytes.SplitAfter(golden, []byte{'\n'})
	cut := bytes.Join([][]byte{lines[0], lines[1], lines[3]}, nil)
	dir := t.TempDir()
	path := filepath.Join(dir, goldenSession+".wal")
	if err := os.WriteFile(path, cut, 0o644); err != nil {
		t.Fatal(err)
	}
	var logged []string
	srv := New(Config{JournalDir: dir, Logf: func(format string, args ...any) {
		logged = append(logged, format)
	}})
	if n := srv.Store().Len(); n != 0 {
		t.Fatalf("recovered %d session(s) from a log whose delta has no base", n)
	}
	if md := srv.Metrics().Dump(srv.now(), 0); md.FaultTolerance.JournalReplayFailuresTotal != 1 || md.FaultTolerance.JournalReplaysTotal != 0 {
		t.Fatalf("journal_replay_failures_total = %d, journal_replays_total = %d, want 1 and 0",
			md.FaultTolerance.JournalReplayFailuresTotal, md.FaultTolerance.JournalReplaysTotal)
	}
	if len(logged) == 0 {
		t.Error("the refused recovery logged nothing")
	}
	if after, err := os.ReadFile(path); err != nil || !bytes.Equal(after, cut) {
		t.Fatalf("the refused recovery rewrote the log (%d → %d B, err %v)", len(cut), len(after), err)
	}
}

// FuzzDeltaApply posts arbitrary bytes as the third interval of a session
// that holds a base. Whatever they are the daemon must not panic, and unless
// it planned them the session must be exactly as it was.
func FuzzDeltaApply(f *testing.F) {
	wf := fanWorkflow()
	snaps := goldenSnapshots(wf)
	for _, s := range snaps {
		s.Workflow = nil
	}
	third, err := monitor.AppendSnapshotJSON(nil, deltaOf(snaps[1], snaps[2]))
	if err != nil {
		f.Fatal(err)
	}
	f.Add(third)
	f.Add([]byte(`{"delta":true,"interval_s":60,"charging_unit_s":300,"slots_per_instance":2,"tasks":[{"id":13,"stage":2,"state":"ready"},{"id":13,"stage":2,"state":"running"}]}`))
	f.Add([]byte(`{"delta":true,"interval_s":60,"charging_unit_s":300,"slots_per_instance":2,"tasks":[{"id":14,"stage":0,"state":"ready"}]}`))
	f.Add([]byte(`{"delta":true,"interval_s":60,"charging_unit_s":300,"slots_per_instance":2,"tasks":[{"id":-1,"stage":0,"state":4}],"instances":[{"id":0,"state":"active","slots":2,"running":[99]}]}`))
	f.Add([]byte(`{"delta":true,"tasks":null,"tasks":[{"id":1}],"interval_s":1e300,"charging_unit_s":1,"slots_per_instance":1}`))
	f.Add(bytes.Replace(third, []byte(`"delta":true,`), nil, 1))
	for _, members := range []string{`"x":[1},`, `"x":{"a" 1},`, "\"x\x01\":1,", "\"x\":\"a\x01b\","} {
		f.Add(append([]byte("{"+members), third[1:]...))
	}

	// No journal and no live run: nothing runs but the request, so the
	// fuzzer's coverage signal is the input's own.
	srv := New(Config{ShardMode: true})
	d := &journaledShard{srv: srv, h: srv.Handler()}
	create, err := json.Marshal(CreateSessionRequest{Workflow: dagio.Encode(wf)})
	if err != nil {
		f.Fatal(err)
	}
	n := 0
	f.Fuzz(func(t *testing.T, body []byte) {
		n++
		id := "fuzz-" + strconv.Itoa(n)
		r := httptest.NewRequest(http.MethodPost, "/v1/sessions", bytes.NewReader(create))
		r.Header.Set(SessionIDHeader, id)
		w := httptest.NewRecorder()
		d.h.ServeHTTP(w, r)
		if w.Code != http.StatusCreated {
			t.Fatalf("create: HTTP %d %s", w.Code, w.Body)
		}
		sess, err := d.srv.Store().Get(id)
		if err != nil {
			t.Fatal(err)
		}
		defer func() { _ = d.srv.Store().Delete(id) }()
		for i, posted := range []*monitor.Snapshot{snaps[0], deltaOf(snaps[0], snaps[1])} {
			if status, resp := d.postSnapshot(t, id, int64(i+1), posted); status != http.StatusOK {
				t.Fatalf("seq %d: HTTP %d %s", i+1, status, resp)
			}
		}
		before := captureState(t, d, sess)
		status, resp := d.post(id, 3, body)
		after := captureState(t, d, sess)
		switch status {
		case http.StatusOK:
			if after.lastSeq != 3 || !after.baseOK {
				t.Fatalf("planned, but the session is at seq %d (base held %v)", after.lastSeq, after.baseOK)
			}
		case http.StatusUnprocessableEntity:
			// Controller and fallback both refused a body that validated: the
			// base has moved, so the session must say it holds none.
			if after.lastSeq != 2 || after.baseOK {
				t.Fatalf("plan_failed left the session at seq %d claiming its base (%v)", after.lastSeq, after.baseOK)
			}
		default:
			if status != http.StatusBadRequest && status != http.StatusInternalServerError {
				t.Fatalf("HTTP %d %s", status, resp)
			}
			if status == http.StatusBadRequest && !reflect.DeepEqual(after, before) {
				t.Fatalf("a rejected body (HTTP %d %s) changed the session", status, resp)
			}
		}
	})
}
