// Package monitor defines the monitoring snapshot a workflow framework
// exposes to the WIRE controller at the start of each MAPE iteration
// (§III-B1). It is the contract between the execution simulator (standing in
// for Pegasus/HTCondor kickstart records) and the Analyze/Plan phases.
//
// A Snapshot contains only information a real framework publishes: the
// static DAG structure, per-task lifecycle state and observed times, input
// data sizes, instance pool state, and billing parameters. Controllers must
// not read the ground-truth ExecTime/TransferTime fields of the embedded
// workflow's tasks — those model the physical world, and the whole point of
// WIRE is to predict them from observations. The predictor's tests enforce
// this by perturbing ground truth after the snapshot is taken.
package monitor

import (
	"fmt"
	"slices"

	"repro/internal/cloud"
	"repro/internal/dag"
	"repro/internal/simtime"
)

// TaskState is the lifecycle state of a task as seen by the framework.
type TaskState int

// Task lifecycle states.
const (
	// Blocked: at least one predecessor has not completed.
	Blocked TaskState = iota
	// Ready: all predecessors completed; waiting for a slot.
	Ready
	// Running: occupying a slot.
	Running
	// Completed: finished; observed times are final.
	Completed
	// Quarantined: retired after exhausting its live-plane attempt budget
	// (poison task); never scheduled again. Terminal like Completed, but
	// its successors stay Blocked forever and the run finishes degraded.
	Quarantined
)

// String implements fmt.Stringer.
func (s TaskState) String() string {
	switch s {
	case Blocked:
		return "blocked"
	case Ready:
		return "ready"
	case Running:
		return "running"
	case Completed:
		return "completed"
	case Quarantined:
		return "quarantined"
	default:
		return "unknown"
	}
}

// MarshalJSON encodes the state by name so the snapshot wire format does not
// depend on the ordering of the lifecycle constants.
func (s TaskState) MarshalJSON() ([]byte, error) {
	switch s {
	case Blocked, Ready, Running, Completed, Quarantined:
		return []byte(`"` + s.String() + `"`), nil
	default:
		return nil, fmt.Errorf("monitor: cannot marshal unknown task state %d", int(s))
	}
}

// UnmarshalJSON decodes a state name (or a legacy integer).
func (s *TaskState) UnmarshalJSON(b []byte) error {
	switch string(b) {
	case `"blocked"`, "0":
		*s = Blocked
	case `"ready"`, "1":
		*s = Ready
	case `"running"`, "2":
		*s = Running
	case `"completed"`, "3":
		*s = Completed
	case `"quarantined"`, "4":
		*s = Quarantined
	default:
		return fmt.Errorf("monitor: unknown task state %s", b)
	}
	return nil
}

// TaskRecord is the monitoring view of one task. The json tags define the
// stable wire format served by wire-serve; zero-valued lifecycle fields are
// omitted (absent == zero, so the encoding round-trips losslessly).
type TaskRecord struct {
	ID    dag.TaskID  `json:"id"`
	Stage dag.StageID `json:"stage"`
	State TaskState   `json:"state"`

	// InputSize is recorded for every task (§II-C property 1) and feeds
	// Policies 4 and 5.
	InputSize float64 `json:"input_size_mb,omitempty"`

	// ReadyAt is when the task became ready (valid for Ready and later).
	ReadyAt simtime.Time `json:"ready_at_s,omitempty"`

	// StartedAt / Instance / Slot are valid while Running and after.
	StartedAt simtime.Time     `json:"started_at_s,omitempty"`
	Instance  cloud.InstanceID `json:"instance,omitempty"`
	Slot      int              `json:"slot,omitempty"`

	// Elapsed is the run time so far for Running tasks (slot occupancy
	// consumed — the restart/sunk cost of §III-B2).
	Elapsed simtime.Duration `json:"elapsed_s,omitempty"`

	// TransferObserved is true once the task's input transfer finished;
	// TransferTime then holds the observed transfer duration.
	TransferObserved bool             `json:"transfer_observed,omitempty"`
	TransferTime     simtime.Duration `json:"transfer_time_s,omitempty"`

	// CompletedAt / ExecTime are valid once Completed. ExecTime is the
	// observed execution portion (occupancy minus transfer).
	CompletedAt simtime.Time     `json:"completed_at_s,omitempty"`
	ExecTime    simtime.Duration `json:"exec_time_s,omitempty"`
}

// Occupancy returns the observed total slot occupancy of a completed task.
func (r *TaskRecord) Occupancy() simtime.Duration { return r.ExecTime + r.TransferTime }

// InstanceRecord is the monitoring view of one held worker instance.
type InstanceRecord struct {
	ID          cloud.InstanceID `json:"id"`
	State       cloud.State      `json:"state"`
	Slots       int              `json:"slots"`
	RequestedAt simtime.Time     `json:"requested_at_s,omitempty"`
	ActiveAt    simtime.Time     `json:"active_at_s,omitempty"`

	// TimeToNextCharge is r_j, measured from Snapshot.Now (§III-D).
	TimeToNextCharge simtime.Duration `json:"time_to_next_charge_s,omitempty"`

	// Running lists the tasks currently occupying slots.
	Running []dag.TaskID `json:"running,omitempty"`

	// Draining marks instances already ordered released; the scheduler
	// stops assigning work to them and the controller must not count
	// them toward future capacity.
	Draining bool `json:"draining,omitempty"`
}

// Snapshot is everything the controller sees at one MAPE iteration. It is
// also the request body of wire-serve's plan endpoint; clients of a session
// may omit Workflow (the service injects the session's DAG).
type Snapshot struct {
	// Now is the iteration start time; Interval is the MAPE period
	// (equal to the cloud lag time, §III-A).
	Now      simtime.Time     `json:"now_s"`
	Interval simtime.Duration `json:"interval_s"`

	// Billing and site parameters the steering policy needs.
	ChargingUnit     simtime.Duration `json:"charging_unit_s"`
	LagTime          simtime.Duration `json:"lag_time_s"`
	SlotsPerInstance int              `json:"slots_per_instance"`
	MaxInstances     int              `json:"max_instances,omitempty"`

	// Delta marks the plan endpoint's incremental body: Tasks then holds
	// whole records, ids strictly increasing, for exactly the tasks whose
	// record differs from the previous interval's; every other field is
	// carried in full as always (see delta.go). Controllers only ever see
	// materialised snapshots, where it is false.
	Delta bool `json:"delta,omitempty"`

	// Workflow is the static DAG (structure, stages, input sizes). See
	// the package comment for what controllers may read from it.
	Workflow *dag.Workflow `json:"workflow,omitempty"`

	// Tasks is indexed by dag.TaskID (in a Delta body: the changed records).
	Tasks []TaskRecord `json:"tasks"`

	// Instances lists held (pending or active) instances.
	Instances []InstanceRecord `json:"instances,omitempty"`

	// RecentTransfers are the data-transfer durations observed since the
	// previous snapshot — the basis for the memoryless transfer estimate
	// (§III-B1).
	RecentTransfers []float64 `json:"recent_transfers_s,omitempty"`
}

// Task returns the record for the given task.
func (s *Snapshot) Task(id dag.TaskID) *TaskRecord { return &s.Tasks[id] }

// Clone returns a deep copy of s sharing only the immutable Workflow. A
// controller that keeps a snapshot past Plan keeps a clone: the simulator
// refills one snapshot in place at every tick.
func (s *Snapshot) Clone() *Snapshot {
	cp := *s
	cp.Tasks = slices.Clone(s.Tasks)
	cp.Instances = slices.Clone(s.Instances)
	for i := range cp.Instances {
		cp.Instances[i].Running = slices.Clone(cp.Instances[i].Running)
	}
	cp.RecentTransfers = slices.Clone(s.RecentTransfers)
	return &cp
}

// StageRecords returns the records of all tasks in a stage, in stage task
// order.
func (s *Snapshot) StageRecords(stage dag.StageID) []*TaskRecord {
	st := s.Workflow.Stage(stage)
	out := make([]*TaskRecord, 0, len(st.Tasks))
	for _, tid := range st.Tasks {
		out = append(out, &s.Tasks[tid])
	}
	return out
}

// RemainingTasks returns the number of tasks not yet completed.
func (s *Snapshot) RemainingTasks() int {
	n := 0
	for i := range s.Tasks {
		if s.Tasks[i].State != Completed {
			n++
		}
	}
	return n
}

// ActiveLoad returns the number of ready plus running tasks — the signal the
// reactive baselines scale on (§IV-C3).
func (s *Snapshot) ActiveLoad() int {
	n := 0
	for i := range s.Tasks {
		if st := s.Tasks[i].State; st == Ready || st == Running {
			n++
		}
	}
	return n
}

// HeldInstances returns the count of pending+active instances (pool size m).
func (s *Snapshot) HeldInstances() int { return len(s.Instances) }

// NonDrainingInstances returns held instances not already ordered released.
func (s *Snapshot) NonDrainingInstances() []InstanceRecord {
	var out []InstanceRecord
	for _, in := range s.Instances {
		if !in.Draining {
			out = append(out, in)
		}
	}
	return out
}

// Done reports whether every task has completed.
func (s *Snapshot) Done() bool { return s.RemainingTasks() == 0 }
