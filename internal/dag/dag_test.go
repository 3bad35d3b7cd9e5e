package dag

import (
	"fmt"
	"math/rand"
	"slices"
	"testing"
	"testing/quick"
)

// diamond builds:
//
//	   a
//	 /   \
//	b     c
//	 \   /
//	   d
func diamond(t *testing.T) *Workflow {
	t.Helper()
	b := NewBuilder("diamond")
	s0 := b.AddStage("root")
	s1 := b.AddStage("mid")
	s2 := b.AddStage("sink")
	a := b.AddTask(s0, "a", 10, 1, 100)
	x := b.AddTask(s1, "b", 20, 2, 50, a)
	y := b.AddTask(s1, "c", 30, 3, 60, a)
	b.AddTask(s2, "d", 5, 0.5, 10, x, y)
	w, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	return w
}

func TestBuilderBasics(t *testing.T) {
	w := diamond(t)
	if w.NumTasks() != 4 || w.NumStages() != 3 {
		t.Fatalf("tasks=%d stages=%d", w.NumTasks(), w.NumStages())
	}
	if got := w.Roots(); len(got) != 1 || got[0] != 0 {
		t.Fatalf("Roots = %v", got)
	}
	a := w.Task(0)
	if len(a.Succs) != 2 {
		t.Fatalf("a.Succs = %v", a.Succs)
	}
	d := w.Task(3)
	if len(d.Deps) != 2 {
		t.Fatalf("d.Deps = %v", d.Deps)
	}
	if w.Task(1).Occupancy() != 22 {
		t.Fatalf("Occupancy = %v", w.Task(1).Occupancy())
	}
}

func TestAggregateTimes(t *testing.T) {
	w := diamond(t)
	if got := w.AggregateExecTime(); got != 65 {
		t.Fatalf("AggregateExecTime = %v", got)
	}
	if got := w.StageMeanExecTime(1); got != 25 {
		t.Fatalf("StageMeanExecTime = %v", got)
	}
}

func TestStageWidths(t *testing.T) {
	w := diamond(t)
	widths := w.StageWidths()
	want := []int{1, 2, 1}
	for i := range want {
		if widths[i] != want[i] {
			t.Fatalf("widths = %v", widths)
		}
	}
}

func TestTopoOrder(t *testing.T) {
	w := diamond(t)
	order := w.TopoOrder()
	pos := make(map[TaskID]int)
	for i, id := range order {
		pos[id] = i
	}
	for _, task := range w.Tasks {
		for _, d := range task.Deps {
			if pos[d] >= pos[task.ID] {
				t.Fatalf("dependency %d not before %d in %v", d, task.ID, order)
			}
		}
	}
}

func TestCriticalPath(t *testing.T) {
	w := diamond(t)
	// a(11) -> c(33) -> d(5.5) = 49.5
	if got := w.CriticalPathExec(); got != 49.5 {
		t.Fatalf("CriticalPathExec = %v", got)
	}
}

func TestWidthProfile(t *testing.T) {
	w := diamond(t)
	p := w.WidthProfile()
	want := []int{1, 2, 1}
	if len(p) != len(want) {
		t.Fatalf("profile = %v", p)
	}
	for i := range want {
		if p[i] != want[i] {
			t.Fatalf("profile = %v", p)
		}
	}
}

func TestBuilderErrors(t *testing.T) {
	b := NewBuilder("bad")
	s := b.AddStage("s")
	b.AddTask(s, "x", 1, 0, 0, TaskID(7)) // dep not yet created
	if _, err := b.Build(); err == nil {
		t.Fatal("expected error for forward dependency")
	}

	b2 := NewBuilder("bad2")
	b2.AddTask(StageID(3), "x", 1, 0, 0) // missing stage
	if _, err := b2.Build(); err == nil {
		t.Fatal("expected error for missing stage")
	}
}

func TestValidateDetectsCycle(t *testing.T) {
	w := diamond(t)
	// Introduce a cycle a -> d -> a by hand.
	w.Tasks[0].Deps = []TaskID{3}
	w.Tasks[3].Succs = append(w.Tasks[3].Succs, 0)
	if err := w.Validate(); err == nil {
		t.Fatal("expected cycle to be detected")
	}
}

func TestValidateDetectsBadSuccs(t *testing.T) {
	w := diamond(t)
	w.Tasks[0].Succs = w.Tasks[0].Succs[:1]
	if err := w.Validate(); err == nil {
		t.Fatal("expected succs mismatch to be detected")
	}
}

func TestValidateDetectsSelfDep(t *testing.T) {
	w := diamond(t)
	w.Tasks[2].Deps = append(w.Tasks[2].Deps, 2)
	if err := w.Validate(); err == nil {
		t.Fatal("expected self-dependency to be detected")
	}
}

func TestValidateDetectsStageMismatch(t *testing.T) {
	w := diamond(t)
	w.Tasks[1].Stage = 2
	if err := w.Validate(); err == nil {
		t.Fatal("expected stage-membership mismatch to be detected")
	}
}

func TestValidateDetectsNegativeTime(t *testing.T) {
	w := diamond(t)
	w.Tasks[1].ExecTime = -1
	if err := w.Validate(); err == nil {
		t.Fatal("expected negative time to be detected")
	}
}

func TestSetOutputSize(t *testing.T) {
	b := NewBuilder("o")
	s := b.AddStage("s")
	id := b.AddTask(s, "x", 1, 0, 0)
	b.SetOutputSize(id, 42)
	b.SetOutputSize(TaskID(99), 1) // out of range: ignored
	w := b.MustBuild()
	if w.Task(id).OutputSize != 42 {
		t.Fatal("output size not recorded")
	}
}

// randomLayered builds a random layered DAG: tasks in layer k depend on a
// random subset of layer k-1. Used for property tests.
func randomLayered(seed int64) *Workflow {
	rng := rand.New(rand.NewSource(seed))
	b := NewBuilder("random")
	layers := rng.Intn(5) + 1
	var prev []TaskID
	for l := 0; l < layers; l++ {
		st := b.AddStage("layer")
		width := rng.Intn(6) + 1
		var cur []TaskID
		for i := 0; i < width; i++ {
			var deps []TaskID
			for _, p := range prev {
				if rng.Float64() < 0.5 {
					deps = append(deps, p)
				}
			}
			// Guarantee connectivity past layer 0.
			if l > 0 && len(deps) == 0 {
				deps = append(deps, prev[rng.Intn(len(prev))])
			}
			id := b.AddTask(st, "t", rng.Float64()*100, rng.Float64()*10, rng.Float64()*1000, deps...)
			cur = append(cur, id)
		}
		prev = cur
	}
	return b.MustBuild()
}

func TestRandomDAGsValidateAndTopo(t *testing.T) {
	f := func(seed int64) bool {
		w := randomLayered(seed)
		if err := w.Validate(); err != nil {
			return false
		}
		order := w.TopoOrder()
		if len(order) != w.NumTasks() {
			return false
		}
		pos := make(map[TaskID]int)
		for i, id := range order {
			pos[id] = i
		}
		for _, task := range w.Tasks {
			for _, d := range task.Deps {
				if pos[d] >= pos[task.ID] {
					return false
				}
			}
		}
		// Critical path never exceeds the aggregate occupancy and is at
		// least the longest single task.
		cp := w.CriticalPathExec()
		total := 0.0
		for _, task := range w.Tasks {
			if cp < task.Occupancy()-1e-9 {
				return false
			}
			total += task.Occupancy()
		}
		if cp > total+1e-9 {
			return false
		}
		// Width profile covers all tasks.
		sum := 0
		for _, n := range w.WidthProfile() {
			sum += n
		}
		return sum == w.NumTasks()
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}

// sortedSuccsCheck is the Succs check Validate made before it bucketed edges
// by predecessor: it compares the Deps and Succs edge multisets as packed
// (from, to) keys sorted once. It is the reference the linear-time check is
// held to.
func sortedSuccsCheck(w *Workflow) error {
	succCount := make([]int32, len(w.Tasks))
	edges := 0
	for _, t := range w.Tasks {
		edges += len(t.Deps)
		for _, d := range t.Deps {
			succCount[d]++
		}
	}
	for _, t := range w.Tasks {
		if len(t.Succs) != int(succCount[t.ID]) {
			return fmt.Errorf("dag: task %d has %d succs, want %d", t.ID, len(t.Succs), succCount[t.ID])
		}
		for _, s := range t.Succs {
			if int(s) < 0 || int(s) >= len(w.Tasks) {
				return fmt.Errorf("dag: task %d lists missing succ %d", t.ID, s)
			}
		}
	}
	want := make([]int64, 0, 2*edges)
	got := want[edges : edges : 2*edges]
	want = want[0:0:edges]
	for _, t := range w.Tasks {
		for _, d := range t.Deps {
			want = append(want, int64(d)<<32|int64(t.ID))
		}
		for _, s := range t.Succs {
			got = append(got, int64(t.ID)<<32|int64(s))
		}
	}
	slices.Sort(want)
	slices.Sort(got)
	for i := range want {
		if want[i] != got[i] {
			return fmt.Errorf("dag: task %d succs mismatch", want[i]>>32)
		}
	}
	return nil
}

// withSuccs returns the tasks that have at least one successor.
func withSuccs(w *Workflow) []*Task {
	var out []*Task
	for _, t := range w.Tasks {
		if len(t.Succs) > 0 {
			out = append(out, t)
		}
	}
	return out
}

// retarget points one random succ of t at a different task.
func retarget(rng *rand.Rand, w *Workflow, t *Task) {
	t.Succs = slices.Clone(t.Succs)
	k := rng.Intn(len(t.Succs))
	t.Succs[k] = TaskID((int(t.Succs[k]) + 1 + rng.Intn(len(w.Tasks)-1)) % len(w.Tasks))
}

// succsMutations edit a valid workflow's edge lists. Each reports whether it
// applied (a workflow without edges has nothing to drop, say) and whether
// the result is still valid.
var succsMutations = []struct {
	name  string
	apply func(rng *rand.Rand, w *Workflow) (applied, valid bool)
}{
	{"unchanged", func(*rand.Rand, *Workflow) (bool, bool) { return true, true }},
	{"dropped succ", func(rng *rand.Rand, w *Workflow) (bool, bool) {
		ts := withSuccs(w)
		if len(ts) == 0 {
			return false, false
		}
		t := ts[rng.Intn(len(ts))]
		k := rng.Intn(len(t.Succs))
		t.Succs = slices.Delete(slices.Clone(t.Succs), k, k+1)
		return true, false
	}},
	{"duplicated succ", func(rng *rand.Rand, w *Workflow) (bool, bool) {
		ts := withSuccs(w)
		if len(ts) == 0 {
			return false, false
		}
		t := ts[rng.Intn(len(ts))]
		t.Succs = append(slices.Clone(t.Succs), t.Succs[rng.Intn(len(t.Succs))])
		return true, false
	}},
	{"retargeted succ", func(rng *rand.Rand, w *Workflow) (bool, bool) {
		ts := withSuccs(w)
		if len(ts) == 0 {
			return false, false
		}
		retarget(rng, w, ts[rng.Intn(len(ts))])
		return true, false
	}},
	{"retargeted succs in two tasks", func(rng *rand.Rand, w *Workflow) (bool, bool) {
		ts := withSuccs(w)
		if len(ts) < 2 {
			return false, false
		}
		rng.Shuffle(len(ts), func(i, j int) { ts[i], ts[j] = ts[j], ts[i] })
		retarget(rng, w, ts[0])
		retarget(rng, w, ts[1])
		return true, false
	}},
	{"permuted succs", func(rng *rand.Rand, w *Workflow) (bool, bool) {
		ts := withSuccs(w)
		if len(ts) == 0 {
			return false, false
		}
		t := ts[rng.Intn(len(ts))]
		t.Succs = slices.Clone(t.Succs)
		rng.Shuffle(len(t.Succs), func(i, j int) { t.Succs[i], t.Succs[j] = t.Succs[j], t.Succs[i] })
		return true, true
	}},
	{"dependency listed twice", func(rng *rand.Rand, w *Workflow) (bool, bool) {
		t := w.Tasks[rng.Intn(len(w.Tasks))]
		if len(t.Deps) == 0 {
			return false, false
		}
		t.Deps = append(slices.Clone(t.Deps), t.Deps[rng.Intn(len(t.Deps))])
		return true, false
	}},
	{"multi-edge listed both ways", func(rng *rand.Rand, w *Workflow) (bool, bool) {
		t := w.Tasks[rng.Intn(len(w.Tasks))]
		if len(t.Deps) == 0 {
			return false, false
		}
		d := t.Deps[rng.Intn(len(t.Deps))]
		t.Deps = append(slices.Clone(t.Deps), d)
		w.Tasks[d].Succs = append(slices.Clone(w.Tasks[d].Succs), t.ID)
		return true, true
	}},
	{"out-of-range succ", func(rng *rand.Rand, w *Workflow) (bool, bool) {
		ts := withSuccs(w)
		if len(ts) == 0 {
			return false, false
		}
		t := ts[rng.Intn(len(ts))]
		t.Succs = slices.Clone(t.Succs)
		t.Succs[rng.Intn(len(t.Succs))] = []TaskID{-1, TaskID(len(w.Tasks))}[rng.Intn(2)]
		return true, false
	}},
}

// TestValidateMatchesSortedCheck drives Validate and the sort-based
// reference over random layered DAGs and edge-list mutations of them: both
// must accept and reject the same workflows with the same error text.
func TestValidateMatchesSortedCheck(t *testing.T) {
	for _, m := range succsMutations {
		t.Run(m.name, func(t *testing.T) {
			applied := 0
			for seed := int64(0); seed < 400; seed++ {
				w := randomLayered(seed)
				ok, valid := m.apply(rand.New(rand.NewSource(seed)), w)
				if !ok {
					continue
				}
				applied++
				got, want := w.Validate(), sortedSuccsCheck(w)
				if fmt.Sprint(got) != fmt.Sprint(want) {
					t.Fatalf("seed %d: Validate = %v, sorted check = %v", seed, got, want)
				}
				if (got == nil) != valid {
					t.Fatalf("seed %d: Validate = %v, want valid=%t", seed, got, valid)
				}
			}
			if applied < 100 {
				t.Fatalf("mutation applied to only %d of 400 workflows", applied)
			}
		})
	}
}
