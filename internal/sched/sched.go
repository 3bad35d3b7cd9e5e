// Package sched implements the framework master's ready-queue discipline.
//
// The baseline order is FIFO over ready times (§III-D assumes the expected
// scheduling algorithm is FIFO). On top of that, WIRE's Condor patch gives
// the first five ready-to-run tasks of every stage high priority (§III-C),
// so each stage yields early completions for the online predictor as soon
// as possible. Both behaviours live here.
package sched

import (
	"fmt"
	"slices"

	"repro/internal/dag"
	"repro/internal/simtime"
)

// PriorityTasksPerStage is the number of early tasks per stage that are
// boosted ahead of the FIFO order (the paper's "first five").
const PriorityTasksPerStage = 5

// Item is one ready task waiting for a slot.
type Item struct {
	Task    dag.TaskID
	Stage   dag.StageID
	ReadyAt simtime.Time
	// Priority marks one of the first-five ready tasks of its stage.
	Priority bool
}

// Queue is a ready queue with the first-five-per-stage boost. The zero
// value is not usable; call NewQueue.
type Queue struct {
	h          []Item // binary min-heap under less
	stageCount map[dag.StageID]int
	boost      int
}

// Option configures a Queue.
type Option func(*Queue)

// WithBoost overrides how many early tasks per stage are prioritized.
// Zero disables the first-five rule (pure FIFO).
func WithBoost(n int) Option {
	return func(q *Queue) {
		if n < 0 {
			panic(fmt.Sprintf("sched: negative boost %d", n))
		}
		q.boost = n
	}
}

// NewQueue returns an empty ready queue.
func NewQueue(opts ...Option) *Queue {
	q := &Queue{
		stageCount: make(map[dag.StageID]int),
		boost:      PriorityTasksPerStage,
	}
	for _, o := range opts {
		o(q)
	}
	return q
}

// Push enqueues a task that just became ready. The first `boost` pushes for
// each stage are flagged high priority.
func (q *Queue) Push(task dag.TaskID, stage dag.StageID, readyAt simtime.Time) {
	n := q.stageCount[stage]
	q.stageCount[stage] = n + 1
	q.push(Item{
		Task:     task,
		Stage:    stage,
		ReadyAt:  readyAt,
		Priority: n < q.boost,
	})
}

// Requeue re-enqueues a task whose execution was killed by an instance
// release. It keeps its original priority flag (the stage counter is not
// re-incremented) and re-enters the FIFO order at its new ready time.
func (q *Queue) Requeue(task dag.TaskID, stage dag.StageID, readyAt simtime.Time, priority bool) {
	q.push(Item{Task: task, Stage: stage, ReadyAt: readyAt, Priority: priority})
}

// Pop dequeues the next task, or ok=false when empty.
func (q *Queue) Pop() (Item, bool) {
	n := len(q.h) - 1
	if n < 0 {
		return Item{}, false
	}
	top, last := q.h[0], q.h[n]
	q.h = q.h[:n]
	// Sift the hole left at the root down to where the last item fits.
	i := 0
	for {
		l := 2*i + 1
		if l >= n {
			break
		}
		j := l
		if r := l + 1; r < n && less(&q.h[r], &q.h[l]) {
			j = r
		}
		if !less(&q.h[j], &last) {
			break
		}
		q.h[i] = q.h[j]
		i = j
	}
	if i < n {
		q.h[i] = last
	}
	return top, true
}

// Peek returns the next task without removing it.
func (q *Queue) Peek() (Item, bool) {
	if len(q.h) == 0 {
		return Item{}, false
	}
	return q.h[0], true
}

// Len returns the number of queued tasks.
func (q *Queue) Len() int { return len(q.h) }

// Snapshot returns the queued items in dequeue order without disturbing the
// queue; the lookahead simulator uses it to replicate dispatch order. The
// order is total, so sorting a copy yields exactly the Pop sequence.
func (q *Queue) Snapshot() []Item {
	out := slices.Clone(q.h)
	slices.SortFunc(out, func(a, b Item) int {
		switch {
		case less(&a, &b):
			return -1
		case less(&b, &a):
			return 1
		}
		return 0
	})
	return out
}

func (q *Queue) push(it Item) {
	q.h = append(q.h, it)
	// Sift the hole at the end up to where it fits.
	j := len(q.h) - 1
	for j > 0 {
		i := (j - 1) / 2
		if !less(&it, &q.h[i]) {
			break
		}
		q.h[j] = q.h[i]
		j = i
	}
	q.h[j] = it
}

// less orders by (priority desc, readyAt, task): a total order, so every
// correct heap pops the same sequence.
func less(a, b *Item) bool {
	if a.Priority != b.Priority {
		return a.Priority
	}
	if a.ReadyAt != b.ReadyAt {
		return a.ReadyAt < b.ReadyAt
	}
	return a.Task < b.Task
}
