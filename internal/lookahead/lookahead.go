// Package lookahead implements WIRE's online workflow simulator (§III-B2).
//
// Given the current monitoring snapshot and the predictor's occupancy
// estimates, Project simulates the workflow forward one MAPE interval on
// the current resource allotment and reports:
//
//   - the upcoming load Q_task: every task expected to be runnable (running
//     or ready) at the start of the next interval, with its predicted
//     minimum remaining slot occupancy; and
//   - the per-instance restart costs c_j: the maximum slot occupancy any
//     task projected to be running on instance j will have consumed by
//     then — the sunk cost of killing that instance (§III-B2, §III-D).
//
// The projection mirrors the framework's FIFO dispatch, but it is the
// controller's approximation: §III-D notes the true schedule may drift, and
// the experiments show the drift is minor.
package lookahead

import (
	"repro/internal/cloud"
	"repro/internal/dag"
	"repro/internal/monitor"
	"repro/internal/predict"
	"repro/internal/simtime"
)

// Estimator supplies occupancy estimates; *predict.Predictor satisfies it.
type Estimator interface {
	// EstimateOccupancy returns the estimated total slot occupancy
	// (transfer + execution) for a task.
	EstimateOccupancy(snap *monitor.Snapshot, id dag.TaskID) (float64, predict.Policy)
}

// TaskLoad is one entry of the upcoming load Q_task.
type TaskLoad struct {
	Task dag.TaskID
	// Remaining is the predicted minimum remaining slot occupancy at the
	// start of the next interval.
	Remaining simtime.Duration
	// Running reports whether the task is projected to be executing (as
	// opposed to queued) at that time.
	Running bool
}

// Load is the output of one projection.
type Load struct {
	// At is the start of the next interval (snapshot time + interval).
	At simtime.Time
	// Tasks is Q_task, in projected dispatch order: running tasks first
	// (by instance, slot-fill order), then the queued backlog.
	Tasks []TaskLoad
	// RestartCost maps each current instance to c_j.
	RestartCost map[cloud.InstanceID]float64
	// ProjectedCompletions counts tasks the projection expects to finish
	// within the interval.
	ProjectedCompletions int
}

// TotalRemaining sums the remaining occupancy over Q_task.
func (l *Load) TotalRemaining() float64 {
	s := 0.0
	for _, t := range l.Tasks {
		s += t.Remaining
	}
	return s
}

// Remainings returns just the remaining-occupancy vector, the input
// Algorithm 3 consumes.
func (l *Load) Remainings() []float64 {
	out := make([]float64, len(l.Tasks))
	for i, t := range l.Tasks {
		out[i] = t.Remaining
	}
	return out
}

// projTask is the projection's per-task state.
type projTask struct {
	waiting   int
	state     monitor.TaskState
	est       float64 // estimated total occupancy
	pol       predict.Policy
	startedAt simtime.Time
	inst      cloud.InstanceID
	readyAt   simtime.Time
}

// projInst is the projection's per-instance state. running is backed by a
// per-Projector arena slice with capacity equal to the instance's slots.
type projInst struct {
	id       cloud.InstanceID
	slots    int
	free     int
	activeAt simtime.Time
	running  []dag.TaskID
}

// Project simulates one interval ahead on a throwaway Projector. It never
// mutates the snapshot. Long-lived callers (one projection per MAPE
// interval over a session) should hold a Projector instead: it carries the
// dependency wait-counts, memoized estimates, and simulation buffers across
// calls, turning the per-interval cost from O(edges + tasks·estimates) into
// O(tasks + invalidated work).
func Project(snap *monitor.Snapshot, est Estimator) *Load {
	var p Projector
	return p.Project(snap, est)
}
