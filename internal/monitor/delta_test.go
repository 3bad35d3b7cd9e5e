package monitor_test

import (
	"math/rand"
	"reflect"
	"testing"

	"repro/internal/dag"
	"repro/internal/monitor"
)

// TestDeltaRoundTrip holds AppendChanged and ApplyDelta to each other on
// random snapshot pairs: the delta names exactly the records that differ, in
// index order, folding it into the old snapshot gives the new one, and folding
// it again changes nothing.
func TestDeltaRoundTrip(t *testing.T) {
	for seed := int64(0); seed < 200; seed++ {
		rng := rand.New(rand.NewSource(seed))
		prev, cur := randSnapshot(rng), randSnapshot(rng)
		// cur takes prev's length, and its nil-ness, which Clone keeps.
		drawn := cur.Tasks
		cur.Tasks = prev.Clone().Tasks
		clear(cur.Tasks)
		copy(cur.Tasks, drawn)
		for i := range cur.Tasks {
			cur.Tasks[i].ID = dag.TaskID(i)
			if rng.Intn(2) == 0 {
				cur.Tasks[i] = prev.Tasks[i]
			}
		}
		prev.Delta, cur.Delta = false, false

		delta := *cur
		delta.Delta = true
		delta.Tasks = monitor.AppendChanged(nil, prev.Tasks, cur.Tasks)
		next := 0
		for i := range cur.Tasks {
			if cur.Tasks[i] != prev.Tasks[i] {
				if next >= len(delta.Tasks) || delta.Tasks[next] != cur.Tasks[i] {
					t.Fatalf("seed %d: record %d changed but is not entry %d of the delta", seed, i, next)
				}
				next++
			}
		}
		if next != len(delta.Tasks) {
			t.Fatalf("seed %d: delta has %d records, %d changed", seed, len(delta.Tasks), next)
		}

		base := prev.Clone()
		for round := 1; round <= 2; round++ {
			if err := base.ApplyDelta(&delta); err != nil {
				t.Fatalf("seed %d: %v", seed, err)
			}
			if !reflect.DeepEqual(base, cur) {
				t.Fatalf("seed %d: after %d application(s) the base is not the new snapshot\nbase %+v\ncur  %+v", seed, round, base, cur)
			}
		}
	}
}

// TestApplyDeltaRejectsWithoutWriting pins the ids a delta may carry —
// strictly increasing indices into the base — and that a delta breaking the
// rule anywhere, even in its last record, changes nothing.
func TestApplyDeltaRejectsWithoutWriting(t *testing.T) {
	base := &monitor.Snapshot{Now: 60, Interval: 60, Tasks: make([]monitor.TaskRecord, 5)}
	for i := range base.Tasks {
		base.Tasks[i].ID = dag.TaskID(i)
	}
	rec := func(id int) monitor.TaskRecord { return monitor.TaskRecord{ID: dag.TaskID(id), State: monitor.Running} }
	for name, tasks := range map[string][]monitor.TaskRecord{
		"past the end":    {rec(1), rec(5)},
		"negative":        {rec(-1), rec(2)},
		"repeated":        {rec(1), rec(3), rec(3)},
		"out of order":    {rec(0), rec(4), rec(2)},
		"far past an int": {rec(1), rec(1 << 40)},
	} {
		before := base.Clone()
		err := base.ApplyDelta(&monitor.Snapshot{Delta: true, Now: 120, Interval: 30, Tasks: tasks})
		if err == nil {
			t.Errorf("%s: accepted", name)
		}
		if !reflect.DeepEqual(base, before) {
			t.Errorf("%s: a rejected delta changed the base", name)
		}
	}
	if err := base.ApplyDelta(&monitor.Snapshot{Delta: true, Now: 120, Interval: 30}); err != nil || base.Now != 120 || base.Interval != 30 {
		t.Errorf("a delta with no changed record must still move the clock: err %v, now %v", err, base.Now)
	}
}
