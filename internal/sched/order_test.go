package sched

import (
	"slices"
	"sort"
	"testing"

	"repro/internal/dag"
	"repro/internal/simtime"
)

// refSort orders items the way the queue promises to dequeue them:
// priority first, then ready time, then task ID.
func refSort(items []Item) {
	sort.SliceStable(items, func(i, j int) bool {
		a, b := items[i], items[j]
		if a.Priority != b.Priority {
			return a.Priority
		}
		if a.ReadyAt != b.ReadyAt {
			return a.ReadyAt < b.ReadyAt
		}
		return a.Task < b.Task
	})
}

// FuzzQueueOrder drives a queue with an operation string (Push, Requeue,
// Pop, Peek, Snapshot) and checks every answer against a model: an unsorted
// list whose dequeue order is refSort's. Ready times are drawn from a small
// range so ties reach every tie-break; a Snapshot must list the model's order
// and leave the queue as it was.
func FuzzQueueOrder(f *testing.F) {
	f.Add([]byte{0, 1, 2, 0, 3, 4, 1, 5, 2, 2, 0, 7, 4, 2})
	f.Add([]byte{1, 9, 1, 8, 0, 0, 0, 0, 0, 0, 0, 0, 4, 3, 2, 2, 2, 2})
	f.Add([]byte{0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 2, 4, 1, 3, 2, 4, 2, 2, 2})
	f.Fuzz(func(t *testing.T, ops []byte) {
		q := NewQueue(WithBoost(2))
		var model []Item
		stageCount := map[dag.StageID]int{}
		next := dag.TaskID(0)
		for i := 0; i < len(ops); i++ {
			arg := byte(0)
			if i+1 < len(ops) {
				arg = ops[i+1]
			}
			stage := dag.StageID(arg % 3)
			readyAt := simtime.Time(arg / 3 % 4)
			switch ops[i] % 5 {
			case 0:
				q.Push(next, stage, readyAt)
				model = append(model, Item{Task: next, Stage: stage, ReadyAt: readyAt, Priority: stageCount[stage] < 2})
				stageCount[stage]++
				next++
				i++
			case 1:
				prio := arg&0x80 != 0
				q.Requeue(next, stage, readyAt, prio)
				model = append(model, Item{Task: next, Stage: stage, ReadyAt: readyAt, Priority: prio})
				next++
				i++
			case 2:
				refSort(model)
				got, ok := q.Pop()
				if ok != (len(model) > 0) {
					t.Fatalf("op %d: Pop ok=%v with %d modeled items", i, ok, len(model))
				}
				if ok {
					if got != model[0] {
						t.Fatalf("op %d: Pop = %+v, want %+v", i, got, model[0])
					}
					model = model[1:]
				}
			case 3:
				refSort(model)
				got, ok := q.Peek()
				if ok != (len(model) > 0) || (ok && got != model[0]) {
					t.Fatalf("op %d: Peek = %+v, %v; model head %v", i, got, ok, model)
				}
			case 4:
				refSort(model)
				before := slices.Clone(q.h)
				snap := q.Snapshot()
				if !slices.Equal(snap, model) {
					t.Fatalf("op %d: Snapshot = %+v, want %+v", i, snap, model)
				}
				if !slices.Equal(q.h, before) {
					t.Fatalf("op %d: Snapshot changed the queue", i)
				}
			}
			if q.Len() != len(model) {
				t.Fatalf("op %d: Len = %d, model holds %d", i, q.Len(), len(model))
			}
		}
	})
}

// TestQueuePushPopAllocationFree pins the value-typed heap: once the queue
// has grown, a Push and a Pop allocate nothing.
func TestQueuePushPopAllocationFree(t *testing.T) {
	q := NewQueue()
	for i := 0; i < 64; i++ {
		q.Push(dag.TaskID(i), 0, simtime.Time(i))
	}
	id := dag.TaskID(64)
	allocs := testing.AllocsPerRun(1000, func() {
		q.Push(id, 0, simtime.Time(id))
		q.Pop()
		id++
	})
	if allocs != 0 {
		t.Fatalf("Push+Pop allocates %v times, want 0", allocs)
	}
}
