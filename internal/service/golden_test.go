package service

import (
	"bytes"
	"context"
	"encoding/json"
	"flag"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"reflect"
	"testing"
	"time"

	"repro/internal/cloud"
	"repro/internal/core"
	"repro/internal/dag"
	"repro/internal/dagio"
	"repro/internal/monitor"
	"repro/internal/sim"
)

var updateGolden = flag.Bool("update", false, "rewrite testdata/golden.wal from the current write path")

// goldenWAL is the checked-in session log — create, one full plan, two delta
// plans, the second plan degraded — that pins the WAL format from both sides:
// this package's write path must reproduce it byte for byte, and
// internal/audit's independent decoder reads the same file (TestGoldenWAL
// there). The other two are the same session as earlier builds wrote it —
// goldenV1WAL before the delta protocol, every plan a full snapshot;
// goldenV2WAL with deltas but before the wavefront was grouped, one prediction
// record per pending task in each response. Nothing writes those files any
// more, but journals like them are on disks and must replay.
const (
	goldenWAL     = "testdata/golden.wal"
	goldenV1WAL   = "testdata/golden_v1.wal"
	goldenV2WAL   = "testdata/golden_v2.wal"
	goldenSession = "golden-session-01"
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
	clock := func() time.Time { return time.Date(2026, 1, 2, 3, 4, 5, 0, time.UTC) }
	srv := New(Config{JournalDir: dir, ShardMode: true, clock: clock})
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	wf := fanWorkflow()

	create, err := json.Marshal(CreateSessionRequest{
		Workflow:   dagio.Encode(wf),
		Controller: &ControllerSpec{MinPool: 1},
		Tenant:     "acme",
		DeadlineS:  3600,
	})
	if err != nil {
		t.Fatal(err)
	}
	req, err := http.NewRequest(http.MethodPost, ts.URL+"/v1/sessions", bytes.NewReader(create))
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set(SessionIDHeader, goldenSession)
	res, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	res.Body.Close()
	if res.StatusCode != http.StatusCreated {
		t.Fatalf("create: HTTP %d", res.StatusCode)
	}
	sess, err := srv.Store().Get(goldenSession)
	if err != nil {
		t.Fatal(err)
	}
	sess.mu.Lock()
	sess.ctrl = &crashOnce{Controller: sess.ctrl, at: 2}
	sess.mu.Unlock()

	client := NewClient(ts.URL)
	for i, snap := range goldenSnapshots(wf) {
		resp, err := client.Plan(context.Background(), goldenSession, int64(i+1), snap)
		if err != nil {
			t.Fatalf("seq %d: %v", i+1, err)
		}
		if resp.Degraded != (i+1 == 2) {
			t.Fatalf("seq %d: degraded = %v", i+1, resp.Degraded)
		}
	}
	data, err := os.ReadFile(filepath.Join(dir, goldenSession+".wal"))
	if err != nil {
		t.Fatal(err)
	}
	return data
}

// TestGoldenWAL holds the write path to the checked-in log, byte for byte,
// holds the plan framer to each of its plan lines, and replays it.
func TestGoldenWAL(t *testing.T) {
	got := writeGoldenSession(t, t.TempDir())
	if *updateGolden {
		if err := os.WriteFile(goldenWAL, got, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(goldenWAL)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Fatalf("the write path no longer produces %s (rerun with -update only if the format was meant to change)\ngot:  %s\nwant: %s",
			goldenWAL, firstDiff(got, want), firstDiff(want, got))
	}

	replayGolden(t, want, []bool{false, true, true}, true)
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
