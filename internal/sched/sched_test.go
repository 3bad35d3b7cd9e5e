package sched

import (
	"testing"

	"repro/internal/dag"
)

func TestFIFOOrder(t *testing.T) {
	q := NewQueue(WithBoost(0))
	q.Push(2, 0, 10)
	q.Push(1, 0, 5)
	q.Push(3, 0, 20)
	var got []dag.TaskID
	for {
		it, ok := q.Pop()
		if !ok {
			break
		}
		got = append(got, it.Task)
	}
	want := []dag.TaskID{1, 2, 3}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("order = %v, want %v", got, want)
		}
	}
}

func TestFirstFiveBoost(t *testing.T) {
	q := NewQueue()
	// Stage 0: 7 tasks ready at t=0; stage 1: 2 tasks ready earlier.
	for i := 0; i < 7; i++ {
		q.Push(dag.TaskID(i), 0, 0)
	}
	q.Push(100, 1, -5)
	q.Push(101, 1, -5)
	var boosted, rest []dag.TaskID
	for {
		it, ok := q.Pop()
		if !ok {
			break
		}
		if it.Priority {
			boosted = append(boosted, it.Task)
		} else {
			rest = append(rest, it.Task)
		}
	}
	// First five of stage 0 plus both (first-five) of stage 1 are boosted.
	if len(boosted) != 7 {
		t.Fatalf("boosted = %v", boosted)
	}
	if len(rest) != 2 || rest[0] != 5 || rest[1] != 6 {
		t.Fatalf("rest = %v", rest)
	}
	// All boosted tasks came out before all non-boosted ones: verified by
	// construction of the two slices (Pop order).
}

func TestBoostCountsPerStage(t *testing.T) {
	q := NewQueue(WithBoost(2))
	for i := 0; i < 4; i++ {
		q.Push(dag.TaskID(i), 0, 0)
	}
	nBoost := 0
	for {
		it, ok := q.Pop()
		if !ok {
			break
		}
		if it.Priority {
			nBoost++
		}
	}
	if nBoost != 2 {
		t.Fatalf("boosted %d tasks, want 2", nBoost)
	}
}

func TestRequeueKeepsPriority(t *testing.T) {
	q := NewQueue(WithBoost(1))
	q.Push(0, 0, 0) // boosted
	q.Push(1, 0, 0) // not boosted
	it, _ := q.Pop()
	if it.Task != 0 || !it.Priority {
		t.Fatalf("unexpected first pop %+v", it)
	}
	// Task 0 gets killed and requeued later; it must still jump ahead.
	q.Requeue(0, 0, 50, true)
	it, _ = q.Pop()
	if it.Task != 0 || !it.Priority {
		t.Fatalf("requeued task lost priority: %+v", it)
	}
	// And requeue must not consume the stage's boost budget.
	q.Push(2, 0, 60)
	it, _ = q.Pop()
	if it.Task != 1 {
		t.Fatalf("expected task 1 next, got %v", it.Task)
	}
}

func TestPeekAndLen(t *testing.T) {
	q := NewQueue()
	if _, ok := q.Peek(); ok {
		t.Fatal("peek on empty queue")
	}
	if _, ok := q.Pop(); ok {
		t.Fatal("pop on empty queue")
	}
	q.Push(5, 0, 1)
	if it, ok := q.Peek(); !ok || it.Task != 5 {
		t.Fatalf("peek = %+v", it)
	}
	if q.Len() != 1 {
		t.Fatalf("Len = %d", q.Len())
	}
}

func TestSnapshotNonDestructive(t *testing.T) {
	q := NewQueue()
	for i := 0; i < 8; i++ {
		q.Push(dag.TaskID(i), 0, float64(i))
	}
	snap := q.Snapshot()
	if len(snap) != 8 || q.Len() != 8 {
		t.Fatalf("snapshot disturbed queue: %d/%d", len(snap), q.Len())
	}
	// Snapshot order must equal actual pop order.
	for _, s := range snap {
		it, ok := q.Pop()
		if !ok || it.Task != s.Task {
			t.Fatalf("snapshot order %v != pop order %v", s.Task, it.Task)
		}
	}
}

func TestNegativeBoostPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	NewQueue(WithBoost(-1))
}
