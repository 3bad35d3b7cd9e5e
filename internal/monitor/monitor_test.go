package monitor

import (
	"testing"

	"repro/internal/dag"
)

func sampleSnapshot(t *testing.T) *Snapshot {
	t.Helper()
	b := dag.NewBuilder("m")
	s0 := b.AddStage("a")
	s1 := b.AddStage("b")
	r := b.AddTask(s0, "r", 10, 1, 5)
	b.AddTask(s1, "x", 10, 1, 5, r)
	b.AddTask(s1, "y", 10, 1, 5, r)
	b.AddTask(s1, "z", 10, 1, 5, r)
	wf := b.MustBuild()
	snap := &Snapshot{
		Now:      100,
		Interval: 10,
		Workflow: wf,
		Tasks: []TaskRecord{
			{ID: 0, Stage: 0, State: Completed, ExecTime: 9, TransferTime: 1},
			{ID: 1, Stage: 1, State: Running, Elapsed: 4},
			{ID: 2, Stage: 1, State: Ready},
			{ID: 3, Stage: 1, State: Blocked},
		},
		Instances: []InstanceRecord{
			{ID: 0, Slots: 2, Running: []dag.TaskID{1}},
			{ID: 1, Slots: 2, Draining: true},
		},
	}
	return snap
}

func TestTaskAccessors(t *testing.T) {
	snap := sampleSnapshot(t)
	if snap.Task(1).State != Running {
		t.Fatal("Task accessor wrong")
	}
	if got := snap.Task(0).Occupancy(); got != 10 {
		t.Fatalf("Occupancy = %v", got)
	}
}

func TestStageRecords(t *testing.T) {
	snap := sampleSnapshot(t)
	recs := snap.StageRecords(1)
	if len(recs) != 3 {
		t.Fatalf("stage records = %d", len(recs))
	}
	for _, r := range recs {
		if r.Stage != 1 {
			t.Fatalf("record %+v in wrong stage", r)
		}
	}
}

func TestCounts(t *testing.T) {
	snap := sampleSnapshot(t)
	counts := map[TaskState]int{}
	for i := range snap.Tasks {
		counts[snap.Tasks[i].State]++
	}
	if counts[Completed] != 1 || counts[Running] != 1 || counts[Ready] != 1 || counts[Blocked] != 1 {
		t.Fatalf("counts = %v", counts)
	}
	if snap.RemainingTasks() != 3 {
		t.Fatalf("remaining = %d", snap.RemainingTasks())
	}
	if snap.ActiveLoad() != 2 {
		t.Fatalf("active load = %d", snap.ActiveLoad())
	}
	if snap.Done() {
		t.Fatal("snapshot wrongly done")
	}
	if snap.HeldInstances() != 2 {
		t.Fatalf("held = %d", snap.HeldInstances())
	}
}

func TestNonDrainingInstances(t *testing.T) {
	snap := sampleSnapshot(t)
	nd := snap.NonDrainingInstances()
	if len(nd) != 1 || nd[0].ID != 0 {
		t.Fatalf("non-draining = %+v", nd)
	}
}

func TestDone(t *testing.T) {
	snap := sampleSnapshot(t)
	for i := range snap.Tasks {
		snap.Tasks[i].State = Completed
	}
	if !snap.Done() {
		t.Fatal("all-completed snapshot not done")
	}
}

func TestStateStrings(t *testing.T) {
	for s, want := range map[TaskState]string{
		Blocked: "blocked", Ready: "ready", Running: "running", Completed: "completed",
	} {
		if s.String() != want {
			t.Fatalf("%d.String() = %q", int(s), s.String())
		}
	}
	if TaskState(99).String() != "unknown" {
		t.Fatal("unknown state string")
	}
}
