package service

import (
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"testing"
	"time"

	"repro/internal/audit"
	"repro/internal/dagio"
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

// TestJournalFsyncModes drives the same journaled workload under each WAL
// durability mode and requires identical recovery semantics: every complete
// interval replays, a torn tail is tolerated, and the offline auditor finds
// nothing to flag. The modes differ only in when bytes reach stable storage
// — in-process reads always see page-cache writes, so recovery and the
// fenced-handoff protocol must be mode-blind.
func TestJournalFsyncModes(t *testing.T) {
	for _, mode := range []string{FsyncRecord, FsyncPerInterval, FsyncOff} {
		t.Run(mode, func(t *testing.T) {
			dir := t.TempDir()
			_, client := newTestServer(t, Config{
				JournalDir:    dir,
				FsyncMode:     mode,
				FsyncInterval: 20 * time.Millisecond,
			})
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

			// Crash mid-append: a torn trailing record on top of the synced
			// (or unsynced) complete ones.
			walPath := filepath.Join(dir, info.ID+".wal")
			f, err := os.OpenFile(walPath, os.O_WRONLY|os.O_APPEND, 0)
			if err != nil {
				t.Fatal(err)
			}
			if _, err := f.WriteString(`{"type":"plan","seq":4,"snapsho`); err != nil {
				t.Fatal(err)
			}
			f.Close()

			srv2 := New(Config{JournalDir: dir, FsyncMode: mode})
			if srv2.Store().Len() != 1 {
				t.Fatalf("recovered %d sessions, want 1", srv2.Store().Len())
			}
			ts2 := httptest.NewServer(srv2.Handler())
			defer ts2.Close()
			c2 := NewClient(ts2.URL)
			replayed, err := c2.Plan(ctx, info.ID, 3, snap)
			if err != nil {
				t.Fatal(err)
			}
			if replayed.Iteration != last.Iteration || !sameDecision(replayed.Decision, last.Decision) {
				t.Fatalf("recovered cache diverged under %s: %+v != %+v", mode, replayed, last)
			}

			rep, err := audit.Run(audit.Config{Dirs: []string{dir}})
			if err != nil {
				t.Fatal(err)
			}
			if !rep.Clean() {
				t.Fatalf("auditor flagged a crashed-but-consistent %s journal: %+v", mode, rep.Violations)
			}
			if rep.Sessions != 1 || rep.Plans != 3 {
				t.Fatalf("audit saw %d session(s), %d plan(s), want 1/3", rep.Sessions, rep.Plans)
			}
		})
	}
}
