package exec

import (
	"encoding/json"
	"fmt"
	"sync"

	"repro/internal/dag"
	"repro/internal/simtime"
	"repro/internal/wal"
)

// Journal record kinds. One record is appended per agent/lease/instance
// lifecycle transition, in dispatcher-lock order, so the journal is a total
// order over everything that happened to the run, and the run's state is the
// fold of Dispatcher.apply over it.
const (
	RecRunCreated       = "run-created"
	RecRunStarted       = "run-started"
	RecRunResumed       = "run-resumed"
	RecRunDone          = "run-done"
	RecRunFailed        = "run-failed"
	RecAgentRegistered  = "agent-registered"
	RecAgentReconnected = "agent-reconnected"
	RecAgentBound       = "agent-bound"
	RecAgentParked      = "agent-parked"
	RecAgentFailed      = "agent-failed"
	RecAgentBlacklisted = "agent-blacklisted"
	RecInstanceLaunch   = "instance-launch"
	RecInstanceActive   = "instance-active"
	RecInstanceEnd      = "instance-terminated"
	RecInstanceDOA      = "instance-doa"
	RecLeaseGranted     = "lease-granted"
	RecLeaseSpeculated  = "lease-speculated"
	RecLeaseTransfer    = "lease-transfer"
	RecLeaseCompleted   = "lease-completed"
	RecLeaseReclaimed   = "lease-reclaimed"
	RecLeaseSuperseded  = "lease-superseded"
	RecTaskRequeued     = "task-requeued"
	RecTaskQuarantined  = "task-quarantined"
	RecDecision         = "decision"
)

// Record is one journal entry. Optional identifiers use pointers so the zero
// task/instance IDs survive the omitempty round trip.
type Record struct {
	Seq    int64        `json:"seq"`
	WallMs int64        `json:"wall_ms"`
	NowS   simtime.Time `json:"now_s"`
	Kind   string       `json:"kind"`

	Agent    string `json:"agent,omitempty"`
	Instance *int   `json:"instance,omitempty"`
	Lease    *int64 `json:"lease,omitempty"`
	Task     *int   `json:"task,omitempty"`
	Slots    int    `json:"slots,omitempty"`
	Detail   string `json:"detail,omitempty"`

	// Attempt carries the task's failed-attempt count on lease-reclaimed
	// and task-quarantined records, so recovery restores retry budgets.
	Attempt int `json:"attempt,omitempty"`

	// ExecS/TransferS carry the measured times on lease-completed records,
	// TransferS alone the mid-task observation on lease-transfer records:
	// they feed the monitoring snapshots and the billing, so a recovered run
	// plans from the same telemetry the crashed one held.
	ExecS     simtime.Duration `json:"exec_s,omitempty"`
	TransferS simtime.Duration `json:"transfer_s,omitempty"`

	// Spec holds the marshaled CreateRunRequest on run-created records —
	// everything a restarted daemon needs to rebuild the dispatcher.
	Spec json.RawMessage `json:"run_spec,omitempty"`
	// WorkflowDigest, on the run-created record of a run created by
	// workflow_key, is the generated workflow's workloads.Digest.
	WorkflowDigest string `json:"workflow_digest,omitempty"`

	// Snapshot/Decision hold the full plan record on decision records, so
	// the TwinVerify parity certificate survives a daemon restart.
	Snapshot json.RawMessage `json:"snapshot,omitempty"`
	Decision json.RawMessage `json:"decision,omitempty"`
}

// RecordSink receives journal records. Append is called under the dispatcher
// lock, after the record has been applied to the run, and must not block for
// long or call back into the dispatcher. An error means the record may not be
// in the journal; one wrapping wal.ErrBroken means no later record can be
// either, and the dispatcher stops journaling.
type RecordSink interface {
	Append(Record) error
}

// FileSink is a run's journal file: one JSON line per record in a wal.Log,
// which brings the single-write framing, the fsync policy, failed-write repair
// and torn-tail recovery the session WAL has.
type FileSink struct {
	mu  sync.Mutex
	log *wal.Log
}

// NewFileSink opens the journal at path for appending, creating it for a new
// run. A recovered run's journal is first cut (wal.Cut) at the offset
// ReadJournal reported: records appended behind a torn tail would be
// unreadable — replay stops at the first undecodable line — and a second
// crash would lose the whole recovered tail.
func NewFileSink(path string, sync wal.Policy) (*FileSink, error) {
	l, err := wal.Open(path, sync, nil)
	if err != nil {
		return nil, err
	}
	return &FileSink{log: l}, nil
}

// Append implements RecordSink.
func (s *FileSink) Append(r Record) error {
	b, err := json.Marshal(r)
	if err != nil {
		return err
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.log.Append(append(b, '\n'))
}

// Close syncs and closes the file.
func (s *FileSink) Close() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.log.Close(true)
}

// ReadJournal decodes the journal file at path and reports the offset after
// its last whole record, which is where recovery resumes it. It stops at
// the first line that is not a whole record — a torn tail (partial write at
// crash), or a corrupt record mid-file, which surfaces as a shorter journal.
func ReadJournal(path string) (recs []Record, end int64, err error) {
	end, _, err = wal.Replay(path, func(line []byte) error {
		var rec Record
		if err := json.Unmarshal(line, &rec); err != nil {
			return err
		}
		recs = append(recs, rec)
		return nil
	})
	return recs, end, err
}

// AssignmentState is the task→agent assignment picture at one instant,
// either observed live (Dispatcher.Assignments) or rebuilt from a journal
// (ReplayAssignments). The reclaim tests assert the two are identical.
type AssignmentState struct {
	// Leased maps running tasks to the agent currently holding their lease.
	Leased map[dag.TaskID]string `json:"leased"`
	// Completed marks finished tasks.
	Completed map[dag.TaskID]bool `json:"completed"`
	// Reclaims counts how many times each task's lease was reclaimed.
	Reclaims map[dag.TaskID]int `json:"reclaims"`
	// LiveAgents holds registered agents not yet failed.
	LiveAgents map[string]bool `json:"live_agents"`
}

// NewAssignmentState returns an empty state.
func NewAssignmentState() *AssignmentState {
	return &AssignmentState{
		Leased:     make(map[dag.TaskID]string),
		Completed:  make(map[dag.TaskID]bool),
		Reclaims:   make(map[dag.TaskID]int),
		LiveAgents: make(map[string]bool),
	}
}

// Equal reports whether two assignment states match.
func (s *AssignmentState) Equal(o *AssignmentState) bool {
	if len(s.Leased) != len(o.Leased) || len(s.Completed) != len(o.Completed) ||
		len(s.Reclaims) != len(o.Reclaims) || len(s.LiveAgents) != len(o.LiveAgents) {
		return false
	}
	for k, v := range s.Leased {
		if o.Leased[k] != v {
			return false
		}
	}
	for k := range s.Completed {
		if !o.Completed[k] {
			return false
		}
	}
	for k, v := range s.Reclaims {
		if o.Reclaims[k] != v {
			return false
		}
	}
	for k := range s.LiveAgents {
		if !o.LiveAgents[k] {
			return false
		}
	}
	return true
}

// ReplayAssignments folds a journal into the assignment state it implies.
// It is the journal's correctness certificate: replaying the records of a
// live run (including agent failures and reclaims) must reproduce exactly
// the dispatcher's in-memory assignment state.
func ReplayAssignments(records []Record) (*AssignmentState, error) {
	st := NewAssignmentState()
	// Track lease→task/agent so reclaim/complete/supersede records need
	// only the lease ID to resolve, plus the set of still-active leases per
	// task: a speculative duplicate means a task can hold two at once, and
	// Leased must follow the surviving copy when one is superseded.
	type leaseInfo struct {
		task   dag.TaskID
		agent  string
		active bool
	}
	leases := make(map[int64]*leaseInfo)
	activeFor := func(task dag.TaskID) *leaseInfo {
		var best *leaseInfo
		var bestID int64
		for id, li := range leases {
			if li.active && li.task == task && (best == nil || id < bestID) {
				best, bestID = li, id
			}
		}
		return best
	}
	for i, r := range records {
		switch r.Kind {
		case RecAgentRegistered, RecAgentReconnected:
			st.LiveAgents[r.Agent] = true
		case RecAgentFailed:
			delete(st.LiveAgents, r.Agent)
		case RecLeaseGranted, RecLeaseSpeculated:
			if r.Lease == nil || r.Task == nil {
				return nil, fmt.Errorf("exec: journal record %d (%s) missing lease/task", i, r.Kind)
			}
			id := dag.TaskID(*r.Task)
			leases[*r.Lease] = &leaseInfo{task: id, agent: r.Agent, active: true}
			if r.Kind == RecLeaseGranted {
				st.Leased[id] = r.Agent
			}
		case RecLeaseCompleted:
			if r.Lease == nil {
				return nil, fmt.Errorf("exec: journal record %d (%s) missing lease", i, r.Kind)
			}
			li, ok := leases[*r.Lease]
			if !ok {
				return nil, fmt.Errorf("exec: journal record %d completes unknown lease %d", i, *r.Lease)
			}
			li.active = false
			delete(st.Leased, li.task)
			st.Completed[li.task] = true
		case RecLeaseReclaimed:
			if r.Lease == nil {
				return nil, fmt.Errorf("exec: journal record %d (%s) missing lease", i, r.Kind)
			}
			li, ok := leases[*r.Lease]
			if !ok {
				return nil, fmt.Errorf("exec: journal record %d reclaims unknown lease %d", i, *r.Lease)
			}
			li.active = false
			delete(st.Leased, li.task)
			st.Reclaims[li.task]++
		case RecLeaseSuperseded:
			if r.Lease == nil {
				return nil, fmt.Errorf("exec: journal record %d (%s) missing lease", i, r.Kind)
			}
			li, ok := leases[*r.Lease]
			if !ok {
				return nil, fmt.Errorf("exec: journal record %d supersedes unknown lease %d", i, *r.Lease)
			}
			li.active = false
			// The surviving copy (if any) becomes the task's lease of
			// record, matching the dispatcher's promotion rule.
			if surv := activeFor(li.task); surv != nil {
				st.Leased[li.task] = surv.agent
			} else {
				delete(st.Leased, li.task)
			}
		}
	}
	return st, nil
}

func intPtr(v int) *int       { return &v }
func int64Ptr(v int64) *int64 { return &v }
