package service

import (
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"testing"
	"time"

	"repro/internal/audit"
	"repro/internal/dagio"
	"repro/internal/exec"
)

// TestPlanSeqCacheExactlyOnce pins the idempotent-planning contract: a
// retried plan request (same sequence number) is answered from the session's
// decision cache without advancing the controller, an out-of-order sequence
// is rejected with 409, and the next fresh interval proceeds normally.
func TestPlanSeqCacheExactlyOnce(t *testing.T) {
	srv, client := newTestServer(t, Config{})
	ctx := context.Background()
	wf := smallWorkflow(4)
	info, err := client.CreateSession(ctx, CreateSessionRequest{Workflow: dagio.Encode(wf)})
	if err != nil {
		t.Fatal(err)
	}
	snap := readySnapshot(wf)

	first, err := client.Plan(ctx, info.ID, 1, snap)
	if err != nil {
		t.Fatal(err)
	}
	if first.Seq != 1 || first.Iteration != 1 {
		t.Fatalf("first plan seq/iteration = %d/%d, want 1/1", first.Seq, first.Iteration)
	}

	// The "retry": same seq must replay the cached decision, not plan a
	// fresh interval.
	again, err := client.Plan(ctx, info.ID, 1, snap)
	if err != nil {
		t.Fatalf("retried plan: %v", err)
	}
	if again.Iteration != first.Iteration || !sameDecision(again.Decision, first.Decision) {
		t.Fatalf("retried plan diverged: %+v != %+v", again, first)
	}
	state, err := client.State(ctx, info.ID)
	if err != nil {
		t.Fatal(err)
	}
	if state.Plans != 1 {
		t.Errorf("controller advanced %d intervals, want 1 (retry must not replan)", state.Plans)
	}
	md := srv.Metrics().Dump(srv.now(), srv.Store().Len())
	if md.FaultTolerance.RetriesTotal != 1 {
		t.Errorf("retries_total = %d, want 1", md.FaultTolerance.RetriesTotal)
	}

	// Skipping an interval is a client bug, not a retry: 409.
	_, err = client.Plan(ctx, info.ID, 3, snap)
	var apiErr *APIError
	if err == nil || !asAPIError(err, &apiErr) || apiErr.StatusCode != http.StatusConflict || apiErr.Code != "seq_conflict" {
		t.Fatalf("out-of-order seq: err = %v, want 409/seq_conflict", err)
	}

	// The next in-order interval still plans.
	next, err := client.Plan(ctx, info.ID, 2, snap)
	if err != nil {
		t.Fatal(err)
	}
	if next.Seq != 2 || next.Iteration != 2 {
		t.Fatalf("next plan seq/iteration = %d/%d, want 2/2", next.Seq, next.Iteration)
	}
}

// TestJournalRecoveryAcrossRestart drives a journaled session through three
// intervals, rebuilds a second daemon from the same journal directory, and
// requires the recovered session to answer a retried interval from its
// replayed cache and to continue planning from the next one.
func TestJournalRecoveryAcrossRestart(t *testing.T) {
	dir := t.TempDir()
	_, client := newTestServer(t, Config{JournalDir: dir})
	ctx := context.Background()
	wf := smallWorkflow(4)
	info, err := client.CreateSession(ctx, CreateSessionRequest{Workflow: dagio.Encode(wf)})
	if err != nil {
		t.Fatal(err)
	}
	snap := readySnapshot(wf)
	var last *PlanResponse
	for seq := int64(1); seq <= 3; seq++ {
		if last, err = client.Plan(ctx, info.ID, seq, snap); err != nil {
			t.Fatalf("seq %d: %v", seq, err)
		}
	}

	// "Crash": a second daemon rebuilds its store from the same directory.
	srv2 := New(Config{JournalDir: dir})
	if srv2.Store().Len() != 1 {
		t.Fatalf("recovered %d sessions, want 1", srv2.Store().Len())
	}
	ts2 := httptest.NewServer(srv2.Handler())
	defer ts2.Close()
	c2 := NewClient(ts2.URL)

	// A client retrying the last pre-crash interval gets the recorded
	// response back, byte-for-byte equivalent.
	replayed, err := c2.Plan(ctx, info.ID, 3, snap)
	if err != nil {
		t.Fatalf("retry against recovered daemon: %v", err)
	}
	if replayed.Iteration != last.Iteration || !sameDecision(replayed.Decision, last.Decision) {
		t.Fatalf("recovered cache diverged: %+v != %+v", replayed, last)
	}
	// And the session keeps planning where it left off.
	next, err := c2.Plan(ctx, info.ID, 4, snap)
	if err != nil {
		t.Fatal(err)
	}
	if next.Seq != 4 || next.Iteration != last.Iteration+1 {
		t.Fatalf("post-recovery plan seq/iteration = %d/%d, want 4/%d", next.Seq, next.Iteration, last.Iteration+1)
	}
	md := srv2.Metrics().Dump(srv2.now(), srv2.Store().Len())
	if md.FaultTolerance.JournalReplaysTotal != 1 {
		t.Errorf("journal_replays_total = %d, want 1", md.FaultTolerance.JournalReplaysTotal)
	}
}

// TestJournalReplayCountsBytes restarts a journaling daemon and reads replay
// throughput from /metrics: journal_replay_bytes_total is the size of the WALs
// it replayed, journal_replay_seconds_total the time that took, and the
// router's merge sums both across shards.
func TestJournalReplayCountsBytes(t *testing.T) {
	dir := t.TempDir()
	_, client := newTestServer(t, Config{JournalDir: dir})
	ctx := context.Background()
	wf := smallWorkflow(4)
	for i := 0; i < 2; i++ {
		info, err := client.CreateSession(ctx, CreateSessionRequest{Workflow: dagio.Encode(wf)})
		if err != nil {
			t.Fatal(err)
		}
		for seq := int64(1); seq <= int64(i+2); seq++ {
			if _, err := client.Plan(ctx, info.ID, seq, readySnapshot(wf)); err != nil {
				t.Fatal(err)
			}
		}
	}
	var walBytes int64
	wals, err := filepath.Glob(filepath.Join(dir, "*.wal"))
	if err != nil || len(wals) != 2 {
		t.Fatalf("%d WALs (%v), want 2", len(wals), err)
	}
	for _, path := range wals {
		st, err := os.Stat(path)
		if err != nil {
			t.Fatal(err)
		}
		walBytes += st.Size()
	}

	srv2 := New(Config{JournalDir: dir})
	ft := srv2.Metrics().Dump(srv2.now(), srv2.Store().Len()).FaultTolerance
	if ft.JournalReplaysTotal != 2 || ft.JournalReplayBytesTotal != walBytes || ft.JournalReplaySecondsTotal <= 0 {
		t.Fatalf("after restart: %d replays, %d bytes in %g s; want 2 replays of the %d WAL bytes in some time",
			ft.JournalReplaysTotal, ft.JournalReplayBytesTotal, ft.JournalReplaySecondsTotal, walBytes)
	}
	fleet := srv2.Metrics().Dump(srv2.now(), 0)
	fleet.Merge(srv2.Metrics().Dump(srv2.now(), 0))
	if got := fleet.FaultTolerance; got.JournalReplayBytesTotal != 2*walBytes || got.JournalReplaySecondsTotal != 2*ft.JournalReplaySecondsTotal {
		t.Errorf("merged dump: %d bytes in %g s, want both summed", got.JournalReplayBytesTotal, got.JournalReplaySecondsTotal)
	}
}

// TestJournalTornTailTruncated crashes "mid-append": a half-written trailing
// record must be truncated away on recovery, keeping every complete interval.
func TestJournalTornTailTruncated(t *testing.T) {
	dir := t.TempDir()
	_, client := newTestServer(t, Config{JournalDir: dir})
	ctx := context.Background()
	wf := smallWorkflow(3)
	info, err := client.CreateSession(ctx, CreateSessionRequest{Workflow: dagio.Encode(wf)})
	if err != nil {
		t.Fatal(err)
	}
	snap := readySnapshot(wf)
	for seq := int64(1); seq <= 2; seq++ {
		if _, err := client.Plan(ctx, info.ID, seq, snap); err != nil {
			t.Fatal(err)
		}
	}

	walPath := filepath.Join(dir, info.ID+".wal")
	f, err := os.OpenFile(walPath, os.O_WRONLY|os.O_APPEND, 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.WriteString(`{"type":"plan","seq":3,"snapsho`); err != nil {
		t.Fatal(err)
	}
	f.Close()

	srv2 := New(Config{JournalDir: dir})
	if srv2.Store().Len() != 1 {
		t.Fatalf("recovered %d sessions, want 1", srv2.Store().Len())
	}
	ts2 := httptest.NewServer(srv2.Handler())
	defer ts2.Close()
	c2 := NewClient(ts2.URL)
	state, err := c2.State(ctx, info.ID)
	if err != nil {
		t.Fatal(err)
	}
	if state.Plans != 2 {
		t.Errorf("recovered %d intervals, want the 2 complete ones", state.Plans)
	}
	// The truncation point is the end of record 2, before its newline; the
	// next record must start a line of its own all the same.
	if _, err := c2.Plan(ctx, info.ID, 3, snap); err != nil {
		t.Fatal(err)
	}
	// Every surviving line is one whole record: the torn tail is gone.
	data, err := os.ReadFile(walPath)
	if err != nil {
		t.Fatal(err)
	}
	lines := splitLines(data)
	if len(lines) != 4 {
		t.Fatalf("%d lines after recovery and one more plan, want create + 3 plans", len(lines))
	}
	for i, line := range lines {
		var rec walRecord
		if err := json.Unmarshal(line, &rec); err != nil {
			t.Fatalf("line %d still torn after recovery: %v", i, err)
		}
	}
}

func splitLines(data []byte) [][]byte {
	var out [][]byte
	start := 0
	for i, b := range data {
		if b == '\n' {
			if i > start {
				out = append(out, data[start:i])
			}
			start = i + 1
		}
	}
	if start < len(data) {
		out = append(out, data[start:])
	}
	return out
}

// TestJournalRemovedOnDelete pins that deleting a session removes its WAL so
// it cannot resurrect on restart.
func TestJournalRemovedOnDelete(t *testing.T) {
	dir := t.TempDir()
	_, client := newTestServer(t, Config{JournalDir: dir})
	ctx := context.Background()
	wf := smallWorkflow(3)
	info, err := client.CreateSession(ctx, CreateSessionRequest{Workflow: dagio.Encode(wf)})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := client.Plan(ctx, info.ID, 1, readySnapshot(wf)); err != nil {
		t.Fatal(err)
	}
	if err := client.DeleteSession(ctx, info.ID); err != nil {
		t.Fatal(err)
	}
	wals, err := filepath.Glob(filepath.Join(dir, "*.wal"))
	if err != nil {
		t.Fatal(err)
	}
	if len(wals) != 0 {
		t.Fatalf("%d WAL(s) left after delete: %v", len(wals), wals)
	}
	if srv2 := New(Config{JournalDir: dir}); srv2.Store().Len() != 0 {
		t.Fatalf("deleted session resurrected: %d sessions recovered", srv2.Store().Len())
	}
}

// TestJournalFsyncModes crashes and reopens both journal schemas — a session
// WAL and a live-run journal — under each durability mode and requires
// identical recovery semantics: every complete record replays, a torn tail is
// cut, appends resume on a fresh line, and the offline auditor finds nothing
// to flag. The modes differ only in when bytes reach stable storage —
// in-process reads always see page-cache writes, so recovery and the
// fenced-handoff protocol must be mode-blind.
func TestJournalFsyncModes(t *testing.T) {
	for _, mode := range []string{FsyncRecord, FsyncPerInterval, FsyncOff} {
		cfg := func(dir string) Config {
			return Config{JournalDir: dir, FsyncMode: mode, fsyncInterval: 20 * time.Millisecond}
		}
		t.Run("session/"+mode, func(t *testing.T) { sessionCrashAndReopen(t, cfg) })
		t.Run("live/"+mode, func(t *testing.T) { liveCrashAndReopen(t, cfg) })
	}
}

// tearTail appends the first bytes of a record to a journal: the write a
// crash cut short.
func tearTail(t *testing.T, path, fragment string) {
	t.Helper()
	f, err := os.OpenFile(path, os.O_WRONLY|os.O_APPEND, 0)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	if _, err := f.WriteString(fragment); err != nil {
		t.Fatal(err)
	}
}

func sessionCrashAndReopen(t *testing.T, cfg func(dir string) Config) {
	dir := t.TempDir()
	_, client := newTestServer(t, cfg(dir))
	ctx := context.Background()
	wf := smallWorkflow(3)
	info, err := client.CreateSession(ctx, CreateSessionRequest{Workflow: dagio.Encode(wf)})
	if err != nil {
		t.Fatal(err)
	}
	snap := readySnapshot(wf)
	var last *PlanResponse
	for seq := int64(1); seq <= 3; seq++ {
		if last, err = client.Plan(ctx, info.ID, seq, snap); err != nil {
			t.Fatalf("seq %d: %v", seq, err)
		}
	}

	// Crash mid-append: a torn trailing record on top of the synced (or
	// unsynced) complete ones.
	walPath := filepath.Join(dir, info.ID+".wal")
	tearTail(t, walPath, `{"type":"plan","seq":4,"snapsho`)

	srv2, c2 := newTestServer(t, cfg(dir))
	if srv2.Store().Len() != 1 {
		t.Fatalf("recovered %d sessions, want 1", srv2.Store().Len())
	}
	replayed, err := c2.Plan(ctx, info.ID, 3, snap)
	if err != nil {
		t.Fatal(err)
	}
	if replayed.Iteration != last.Iteration || !sameDecision(replayed.Decision, last.Decision) {
		t.Fatalf("recovered cache diverged: %+v != %+v", replayed, last)
	}
	if _, err := c2.Plan(ctx, info.ID, 4, snap); err != nil {
		t.Fatalf("planning on after the torn tail: %v", err)
	}
	if seqs, _ := walSeqs(t, walPath); fmt.Sprint(seqs) != "[1 2 3 4]" {
		t.Fatalf("reopened WAL holds plan seqs %v, want [1 2 3 4]", seqs)
	}

	rep, err := audit.Run(audit.Config{Dirs: []string{dir}})
	if err != nil {
		t.Fatal(err)
	}
	if !rep.Clean() {
		t.Fatalf("auditor flagged a crashed-but-consistent journal: %+v", rep.Violations)
	}
	if rep.Sessions != 1 || rep.Plans != 4 {
		t.Fatalf("audit saw %d session(s), %d plan(s), want 1/4", rep.Sessions, rep.Plans)
	}
}

// liveCrashAndReopen journals a live run through a daemon — one lease
// completed, one outstanding — tears the journal's tail, and recovers it in a
// second daemon: the lease table must come back as the journal folds
// (ReplayAssignments), the outstanding lease must still be reportable under
// its original identity, and the auditor's lease check must be clean.
func liveCrashAndReopen(t *testing.T, cfg func(dir string) Config) {
	dir1, dir2 := t.TempDir(), t.TempDir()
	ctx := context.Background()
	deleteRun := func(srv *Server, id string) {
		srv.Handler().ServeHTTP(httptest.NewRecorder(), httptest.NewRequest(http.MethodDelete, "/v1/live/runs/"+id, nil))
	}
	liveClient := func(dir string) (*Server, *exec.LiveClient) {
		srv := New(cfg(dir))
		ts := httptest.NewServer(srv.Handler())
		t.Cleanup(ts.Close)
		return srv, exec.NewLiveClient(ts.URL)
	}
	srv1, c1 := liveClient(dir1)
	info, err := c1.CreateRun(ctx, &exec.CreateRunRequest{
		Workflow:         dagio.Encode(smallWorkflow(3)), // 2 slots: the last task is leased when the first completes
		SlotsPerInstance: 2,
		LagTimeS:         0.001,
		ChargingUnitS:    3600,
		MaxInstances:     1,
		Timescale:        1,
		Start:            true,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer deleteRun(srv1, info.ID)
	reg, err := c1.Register(ctx, info.ID, "w", 2)
	if err != nil {
		t.Fatal(err)
	}
	var leases []exec.Lease
	for deadline := time.Now().Add(10 * time.Second); len(leases) < 2; {
		resp, err := c1.Poll(ctx, info.ID, reg.AgentID, 100*time.Millisecond)
		if err != nil {
			t.Fatal(err)
		}
		leases = append(leases, resp.Leases...)
		if time.Now().After(deadline) {
			t.Fatalf("granted %d leases, want 2", len(leases))
		}
	}
	if _, err := c1.Complete(ctx, info.ID, reg.AgentID, leases[0].ID, exec.CompleteReport{ExecS: 30, TransferS: 1}); err != nil {
		t.Fatal(err)
	}

	// Crash: the journal as it is on disk now, plus the write the crash cut
	// short. (The first daemon stands in for a killed process: nothing it
	// does from here on reaches the second one.)
	name := info.ID + ".jsonl"
	image, err := os.ReadFile(filepath.Join(dir1, name))
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(dir2, name), image, 0o644); err != nil {
		t.Fatal(err)
	}
	tearTail(t, filepath.Join(dir2, name), `{"seq":99,"wall_ms":1,"now_s":1,"kind":"lease-comp`)
	journaled, _, err := exec.ReadJournal(filepath.Join(dir2, name))
	if err != nil {
		t.Fatal(err)
	}
	want, err := exec.ReplayAssignments(journaled)
	if err != nil {
		t.Fatal(err)
	}
	// (The slot the completion freed may already hold a third lease.)
	if _, held := want.Leased[leases[1].Task]; len(want.Completed) != 1 || !held {
		t.Fatalf("crash image folds to %+v; want 1 task completed and task %d leased", want, leases[1].Task)
	}

	srv2, c2 := liveClient(dir2)
	defer deleteRun(srv2, info.ID)
	if m := srv2.live.Metrics(); m.RunsRecovered != 1 || m.Counters.JournalErrors != 0 {
		t.Fatalf("recovered %d run(s) with %d journal error(s), want 1 and 0", m.RunsRecovered, m.Counters.JournalErrors)
	}
	st, err := c2.RunStatus(ctx, info.ID)
	if err != nil {
		t.Fatal(err)
	}
	if st.TasksCompleted != 1 || st.Counters.LeasesCompleted != 1 ||
		st.Counters.LeasesGranted != int64(1+len(want.Leased)) {
		t.Fatalf("recovered run: %d task(s) completed, counters %+v", st.TasksCompleted, st.Counters)
	}
	// The outstanding lease survived with its identity: its report is taken,
	// not acked stale — and journaled behind the cut, on a line of its own.
	ack, err := c2.Complete(ctx, info.ID, reg.AgentID, leases[1].ID, exec.CompleteReport{ExecS: 30, TransferS: 1})
	if err != nil || ack.Stale {
		t.Fatalf("reporting the lease that was outstanding at the crash: ack %+v, err %v", ack, err)
	}
	// Read strictly: the torn fragment is gone and every line is a record.
	raw, err := os.ReadFile(filepath.Join(dir2, name))
	if err != nil || len(raw) == 0 || raw[len(raw)-1] != '\n' {
		t.Fatalf("reopened journal does not end on a record boundary (err %v)", err)
	}
	var after []exec.Record
	for i, line := range splitLines(raw) {
		var rec exec.Record
		if err := json.Unmarshal(line, &rec); err != nil {
			t.Fatalf("reopened journal line %d is not a whole record: %v", i+1, err)
		}
		after = append(after, rec)
	}
	got, err := exec.ReplayAssignments(after)
	if err != nil {
		t.Fatal(err)
	}
	want.Completed[leases[1].Task] = true
	delete(want.Leased, leases[1].Task)
	if !got.Equal(want) {
		t.Fatalf("reopened journal folds to %+v, want %+v", got, want)
	}

	rep, err := audit.Run(audit.Config{Dirs: []string{dir2}})
	if err != nil {
		t.Fatal(err)
	}
	// (The run is still ticking: the audit may see records behind after.)
	if !rep.Clean() || rep.LiveRecords < len(after) {
		t.Fatalf("audit of the recovered live journal: %d record(s) (want >= %d), violations %+v", rep.LiveRecords, len(after), rep.Violations)
	}
}
