package exec

import (
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/wal"
)

func TestFileSinkRoundTripAndTornTail(t *testing.T) {
	path := filepath.Join(t.TempDir(), "run.jsonl")
	sink, err := NewFileSink(path, wal.Policy{})
	if err != nil {
		t.Fatal(err)
	}
	recs := []Record{
		{Seq: 1, Kind: RecRunStarted, Detail: "wf"},
		{Seq: 2, Kind: RecAgentRegistered, Agent: "a1", Slots: 4},
		{Seq: 3, Kind: RecLeaseGranted, Agent: "a1", Lease: int64Ptr(1), Task: intPtr(0)},
	}
	for _, r := range recs {
		if err := sink.Append(r); err != nil {
			t.Fatal(err)
		}
	}
	if err := sink.Close(); err != nil {
		t.Fatal(err)
	}

	// Simulate a crash mid-append: a torn trailing line must be ignored.
	f, err := os.OpenFile(path, os.O_APPEND|os.O_WRONLY, 0)
	if err != nil {
		t.Fatal(err)
	}
	f.WriteString(`{"seq":4,"kind":"lease-comp`)
	f.Close()

	got, _, err := ReadJournal(path)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(recs) {
		t.Fatalf("read %d records, want %d", len(got), len(recs))
	}
	for i := range recs {
		if got[i].Kind != recs[i].Kind || got[i].Agent != recs[i].Agent {
			t.Fatalf("record %d = %+v, want %+v", i, got[i], recs[i])
		}
	}
	if got[2].Lease == nil || *got[2].Lease != 1 || got[2].Task == nil || *got[2].Task != 0 {
		t.Fatalf("lease/task identifiers lost: %+v", got[2])
	}
}

func TestReplayAssignmentsFoldsLifecycle(t *testing.T) {
	recs := []Record{
		{Kind: RecAgentRegistered, Agent: "a1"},
		{Kind: RecAgentRegistered, Agent: "a2"},
		{Kind: RecLeaseGranted, Agent: "a1", Lease: int64Ptr(1), Task: intPtr(0)},
		{Kind: RecLeaseGranted, Agent: "a1", Lease: int64Ptr(2), Task: intPtr(1)},
		{Kind: RecLeaseCompleted, Agent: "a1", Lease: int64Ptr(1)},
		// a1 dies holding lease 2; task 1 is reclaimed and regranted to a2.
		{Kind: RecLeaseReclaimed, Agent: "a1", Lease: int64Ptr(2)},
		{Kind: RecAgentFailed, Agent: "a1"},
		{Kind: RecLeaseGranted, Agent: "a2", Lease: int64Ptr(3), Task: intPtr(1)},
	}
	st, err := ReplayAssignments(recs)
	if err != nil {
		t.Fatal(err)
	}
	want := NewAssignmentState()
	want.Completed[0] = true
	want.Leased[1] = "a2"
	want.Reclaims[1] = 1
	want.LiveAgents["a2"] = true
	if !st.Equal(want) {
		t.Fatalf("replayed state %+v, want %+v", st, want)
	}

	// The re-granted lease completes: the task counts once, under the new
	// lease, and its reclaim stays on record.
	st, err = ReplayAssignments(append(recs, Record{Kind: RecLeaseCompleted, Lease: int64Ptr(3)}))
	if err != nil {
		t.Fatal(err)
	}
	delete(want.Leased, 1)
	want.Completed[1] = true
	if !st.Equal(want) {
		t.Fatalf("replayed state after completion %+v, want %+v", st, want)
	}
}

func TestReplayAssignmentsRejectsDanglingLease(t *testing.T) {
	_, err := ReplayAssignments([]Record{{Kind: RecLeaseCompleted, Lease: int64Ptr(9)}})
	if err == nil || !strings.Contains(err.Error(), "unknown lease") {
		t.Fatalf("err = %v, want unknown lease", err)
	}
	_, err = ReplayAssignments([]Record{{Kind: RecLeaseGranted}})
	if err == nil {
		t.Fatal("want error for lease-granted without identifiers")
	}
}
