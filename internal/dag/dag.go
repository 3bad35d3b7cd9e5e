// Package dag defines the workflow model shared by the execution simulator,
// the predictor, and the steering policy.
//
// A workflow is a static DAG of tasks (§I): each task is the unit of
// computation and resource consumption, and a *stage* groups tasks that
// share an executable and the same set of predecessor stages. Ground-truth
// execution and data-transfer times live on the task (they come from the
// workload generator or a recorded trace); the controller never reads them
// directly — it only sees what the monitoring API exposes.
package dag

import "fmt"

// TaskID identifies a task within one workflow; IDs are dense indices into
// Workflow.Tasks.
type TaskID int

// StageID identifies a stage within one workflow; IDs are dense indices into
// Workflow.Stages.
type StageID int

// Task is one schedulable unit of a workflow. The json tags define the
// stable wire format used when workflows travel inside monitoring
// snapshots (the names match internal/dagio's document fields).
type Task struct {
	ID    TaskID  `json:"id"`
	Stage StageID `json:"stage"`
	Name  string  `json:"name,omitempty"`

	// Deps lists predecessor tasks; the task becomes ready only when all
	// of them have completed. Succs is the derived inverse relation.
	Deps  []TaskID `json:"deps,omitempty"`
	Succs []TaskID `json:"succs,omitempty"`

	// InputSize is the task's input data volume in MB. It is visible to
	// the monitor (frameworks record it for every task, §II-C) and is the
	// feature of the online-gradient-descent model (Algorithm 1).
	InputSize float64 `json:"input_size_mb,omitempty"`
	// OutputSize is the produced data volume in MB (informational).
	OutputSize float64 `json:"output_size_mb,omitempty"`

	// ExecTime is the ground-truth execution time in seconds on a
	// reference slot. TransferTime is the ground-truth data-transfer
	// portion of the slot occupancy. The simulator may perturb both with
	// an interference model at assignment time.
	ExecTime     float64 `json:"exec_time_s"`
	TransferTime float64 `json:"transfer_time_s,omitempty"`
}

// Occupancy returns the task's nominal slot occupancy: execution plus data
// transfer (§III-B1).
func (t *Task) Occupancy() float64 { return t.ExecTime + t.TransferTime }

// Stage groups peer tasks that share an executable and dependencies.
type Stage struct {
	ID    StageID  `json:"id"`
	Name  string   `json:"name,omitempty"`
	Tasks []TaskID `json:"tasks,omitempty"`
}

// Workflow is an immutable task DAG. Build one with a Builder and treat it
// as read-only afterwards; simulators keep their mutable run state in
// parallel structures indexed by TaskID.
type Workflow struct {
	Name   string   `json:"name"`
	Tasks  []*Task  `json:"tasks"`
	Stages []*Stage `json:"stages"`
}

// Task returns the task with the given ID.
func (w *Workflow) Task(id TaskID) *Task { return w.Tasks[id] }

// Stage returns the stage with the given ID.
func (w *Workflow) Stage(id StageID) *Stage { return w.Stages[id] }

// NumTasks returns the number of tasks.
func (w *Workflow) NumTasks() int { return len(w.Tasks) }

// NumStages returns the number of stages.
func (w *Workflow) NumStages() int { return len(w.Stages) }

// Roots returns the tasks with no predecessors, in ID order.
func (w *Workflow) Roots() []TaskID {
	var out []TaskID
	for _, t := range w.Tasks {
		if len(t.Deps) == 0 {
			out = append(out, t.ID)
		}
	}
	return out
}

// AggregateExecTime returns the sum of ground-truth execution times over all
// tasks, in seconds (Table I's "Aggregate Task Execution Time").
func (w *Workflow) AggregateExecTime() float64 {
	s := 0.0
	for _, t := range w.Tasks {
		s += t.ExecTime
	}
	return s
}

// StageMeanExecTime returns the mean ground-truth execution time of a stage.
func (w *Workflow) StageMeanExecTime(id StageID) float64 {
	st := w.Stages[id]
	if len(st.Tasks) == 0 {
		return 0
	}
	s := 0.0
	for _, tid := range st.Tasks {
		s += w.Tasks[tid].ExecTime
	}
	return s / float64(len(st.Tasks))
}

// StageWidths returns the task count of every stage in stage order.
func (w *Workflow) StageWidths() []int {
	out := make([]int, len(w.Stages))
	for i, st := range w.Stages {
		out[i] = len(st.Tasks)
	}
	return out
}

// TopoOrder returns a topological order of the task IDs. Validate is assumed
// to have passed (Builder.Build enforces acyclicity), so this cannot fail.
func (w *Workflow) TopoOrder() []TaskID {
	indeg := make([]int, len(w.Tasks))
	for _, t := range w.Tasks {
		indeg[t.ID] = len(t.Deps)
	}
	queue := make([]TaskID, 0, len(w.Tasks))
	for _, t := range w.Tasks {
		if indeg[t.ID] == 0 {
			queue = append(queue, t.ID)
		}
	}
	order := make([]TaskID, 0, len(w.Tasks))
	for len(queue) > 0 {
		id := queue[0]
		queue = queue[1:]
		order = append(order, id)
		for _, s := range w.Tasks[id].Succs {
			indeg[s]--
			if indeg[s] == 0 {
				queue = append(queue, s)
			}
		}
	}
	return order
}

// CriticalPathExec returns the length in seconds of the longest
// occupancy-weighted path through the DAG: a lower bound on makespan with
// unlimited parallelism and no overheads.
func (w *Workflow) CriticalPathExec() float64 {
	longest := make([]float64, len(w.Tasks))
	best := 0.0
	for _, id := range w.TopoOrder() {
		t := w.Tasks[id]
		start := 0.0
		for _, d := range t.Deps {
			if longest[d] > start {
				start = longest[d]
			}
		}
		longest[id] = start + t.Occupancy()
		if longest[id] > best {
			best = longest[id]
		}
	}
	return best
}

// WidthProfile returns, for each level of the DAG (longest dependency chain
// length from a root), the number of tasks at that level. It exposes the
// varying available parallelism that motivates elastic scaling (§I).
func (w *Workflow) WidthProfile() []int {
	level := make([]int, len(w.Tasks))
	maxLevel := 0
	for _, id := range w.TopoOrder() {
		t := w.Tasks[id]
		l := 0
		for _, d := range t.Deps {
			if level[d]+1 > l {
				l = level[d] + 1
			}
		}
		level[id] = l
		if l > maxLevel {
			maxLevel = l
		}
	}
	profile := make([]int, maxLevel+1)
	for _, l := range level {
		profile[l]++
	}
	return profile
}

// Validate checks structural invariants: dense IDs, tasks assigned to
// existing stages, dependency references in range, consistent Succs, no
// self-dependency, and acyclicity. Builder.Build calls it; it is exported so
// deserialized workflows can be checked too.
func (w *Workflow) Validate() error {
	for i, t := range w.Tasks {
		if t == nil {
			return fmt.Errorf("dag: task %d is nil", i)
		}
		if int(t.ID) != i {
			return fmt.Errorf("dag: task at index %d has ID %d", i, t.ID)
		}
		if int(t.Stage) < 0 || int(t.Stage) >= len(w.Stages) {
			return fmt.Errorf("dag: task %d references missing stage %d", t.ID, t.Stage)
		}
		if t.ExecTime < 0 || t.TransferTime < 0 {
			return fmt.Errorf("dag: task %d has negative time", t.ID)
		}
		for _, d := range t.Deps {
			if int(d) < 0 || int(d) >= len(w.Tasks) {
				return fmt.Errorf("dag: task %d depends on missing task %d", t.ID, d)
			}
			if d == t.ID {
				return fmt.Errorf("dag: task %d depends on itself", t.ID)
			}
		}
	}
	for i, st := range w.Stages {
		if st == nil {
			return fmt.Errorf("dag: stage %d is nil", i)
		}
		if int(st.ID) != i {
			return fmt.Errorf("dag: stage at index %d has ID %d", i, st.ID)
		}
		for _, tid := range st.Tasks {
			if int(tid) < 0 || int(tid) >= len(w.Tasks) {
				return fmt.Errorf("dag: stage %d lists missing task %d", st.ID, tid)
			}
			if w.Tasks[tid].Stage != st.ID {
				return fmt.Errorf("dag: task %d listed in stage %d but assigned to %d", tid, st.ID, w.Tasks[tid].Stage)
			}
		}
	}
	// Every task must appear in exactly one stage task list.
	seen := make([]int, len(w.Tasks))
	for _, st := range w.Stages {
		for _, tid := range st.Tasks {
			seen[tid]++
		}
	}
	for id, n := range seen {
		if n != 1 {
			return fmt.Errorf("dag: task %d appears in %d stage lists", id, n)
		}
	}
	// Succs must be the exact inverse of Deps, as edge multisets. Bucket the
	// Deps edges by predecessor with a counting sort, then compare each
	// task's bucket with its Succs through one tally in O(tasks + edges).
	n := len(w.Tasks)
	edges := 0
	for _, t := range w.Tasks {
		edges += len(t.Deps)
	}
	scratch := make([]int32, 3*n+edges)
	succCount, start, tally, bucket := scratch[:n], scratch[n:2*n], scratch[2*n:3*n], scratch[3*n:]
	for _, t := range w.Tasks {
		for _, d := range t.Deps {
			succCount[d]++
		}
	}
	end := int32(0)
	for _, t := range w.Tasks {
		if len(t.Succs) != int(succCount[t.ID]) {
			return fmt.Errorf("dag: task %d has %d succs, want %d", t.ID, len(t.Succs), succCount[t.ID])
		}
		for _, s := range t.Succs {
			if int(s) < 0 || int(s) >= n {
				return fmt.Errorf("dag: task %d lists missing succ %d", t.ID, s)
			}
		}
		end += succCount[t.ID]
		start[t.ID] = end
	}
	// Filling each bucket from its end leaves start[i] at bucket i's first
	// slot.
	for _, t := range w.Tasks {
		for _, d := range t.Deps {
			start[d]--
			bucket[start[d]] = int32(t.ID)
		}
	}
	// The counts already agree, so a bucket matches its Succs exactly when
	// no tally entry goes negative, and a matching bucket leaves the tally
	// all zero for the next task. Tasks are checked in ID order, so the
	// first mismatch is the lowest task whose edges differ.
	for _, t := range w.Tasks {
		for _, s := range t.Succs {
			tally[s]++
		}
		for _, s := range bucket[start[t.ID] : start[t.ID]+succCount[t.ID]] {
			if tally[s]--; tally[s] < 0 {
				return fmt.Errorf("dag: task %d succs mismatch", t.ID)
			}
		}
	}
	// Acyclicity: topological order must cover all tasks.
	if got := len(w.TopoOrder()); got != len(w.Tasks) {
		return fmt.Errorf("dag: cycle detected (topo order covers %d of %d tasks)", got, len(w.Tasks))
	}
	return nil
}
