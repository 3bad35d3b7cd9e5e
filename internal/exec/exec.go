// Package exec is the live execution plane: it closes the MAPE loop outside
// the discrete-event simulator, against real concurrency and real clocks.
//
// In the paper, WIRE steers Pegasus/HTCondor workers executing an emulated
// task mix on ExoGENI (§IV-B). This package plays that substrate's role for
// the repo: a Dispatcher owns one workflow run, leases ready tasks to
// wire-agent worker processes over HTTP, assembles genuine monitoring
// snapshots from agent heartbeats and measured completions, consults the
// same sim.Controller policies every MAPE interval, and maps scale decisions
// onto admitting/retiring agent slots — with the cloud lag and charging-unit
// billing metered on a wall clock (cloud.ScaledClock + cloud.Site).
//
// The pieces:
//
//   - Dispatcher: run state, ready queue (internal/sched), lease table,
//     agent registry, control loop. Everything the simulator does with
//     events, the dispatcher does with due instants on its state, fired in
//     a fixed order by one wall-clock wake timer.
//   - Emulator: the busy/sleep hybrid task emulator agents run per lease,
//     scaled by a timescale factor so tests finish in seconds while billing
//     stays in paper units.
//   - Agent / RunAgent: the worker loop (register, long-poll, execute,
//     report) shared by cmd/wire-agent, the examples/live-run program's
//     goroutine agents, and the in-process tests.
//   - Registry + Handler: the HTTP surface wire-serve mounts under
//     /v1/live/.
//   - Journal + apply: an append-only record of every transition. The
//     run's state is the fold of Dispatcher.apply over it, for the live
//     calls (commitLocked) and for crash recovery alike; ReplayAssignments
//     is the independent fold to the task→agent assignment state that the
//     tests compare both against.
//   - TwinVerify: the live-vs-sim parity certificate — a fresh controller
//     fed the run's recorded snapshots must reproduce the decision stream
//     byte for byte.
//
// Leases have deadlines: a crashed or partitioned agent's tasks are
// reclaimed and requeued exactly once, surfacing as the simulator's
// instance-failed event kind; launch orders no agent binds within the grace
// window surface as dead-on-arrival write-offs.
package exec

import (
	"fmt"
	"time"

	"repro/internal/cloud"
	"repro/internal/dag"
	"repro/internal/sim"
	"repro/internal/simtime"
)

// RunState is the lifecycle state of one live run.
type RunState int

// Run lifecycle states.
const (
	// Created: run built, agents may register, clock not started.
	Created RunState = iota
	// Running: clock started, control loop live.
	Running
	// Done: every task completed; Result is final.
	Done
	// Failed: aborted by an internal error or the wall-time horizon.
	Failed
)

// String implements fmt.Stringer.
func (s RunState) String() string {
	switch s {
	case Created:
		return "created"
	case Running:
		return "running"
	case Done:
		return "done"
	case Failed:
		return "failed"
	default:
		return fmt.Sprintf("state(%d)", int(s))
	}
}

// MarshalJSON encodes the state by name.
func (s RunState) MarshalJSON() ([]byte, error) {
	return []byte(`"` + s.String() + `"`), nil
}

// UnmarshalJSON decodes a state name.
func (s *RunState) UnmarshalJSON(b []byte) error {
	switch string(b) {
	case `"created"`:
		*s = Created
	case `"running"`:
		*s = Running
	case `"done"`:
		*s = Done
	case `"failed"`:
		*s = Failed
	default:
		return fmt.Errorf("exec: unknown run state %s", b)
	}
	return nil
}

// Config parameterizes one live run.
type Config struct {
	// Workflow is the DAG to execute. Required.
	Workflow *dag.Workflow
	// Controller plans the pool each interval. Required.
	Controller sim.Controller

	// Cloud carries the billing/site parameters in simulated seconds:
	// slots per instance, lag time, charging unit, instance cap — the
	// same Config the simulator uses, metered here on the scaled wall
	// clock.
	Cloud cloud.Config

	// Interval is the MAPE period in simulated seconds (default: the
	// cloud lag time, as in §III-A).
	Interval simtime.Duration

	// InitialInstances is the pool size ordered at t=0 (default 1).
	InitialInstances int

	// Timescale compresses the run: one wall second is Timescale
	// simulated seconds (default 1). At 100×, a 3-minute lag passes in
	// 1.8 wall seconds and a 30 s task emulates in 0.3 s.
	Timescale float64

	// BusyFrac is the emulator hint sent in every lease: the fraction of
	// each scaled phase spent busy-spinning instead of sleeping
	// (default 0.2). Zero-cost tasks sleep only.
	BusyFrac float64

	// LeaseFactor and LeaseSlack bound a lease's wall-clock deadline:
	// grant + LeaseFactor × expected wall occupancy + LeaseSlack. An
	// agent that has not completed (or been reaped) by then is declared
	// failed and its tasks are reclaimed. Defaults: 4 and 2 s.
	LeaseFactor float64
	LeaseSlack  time.Duration

	// HeartbeatTTL declares an agent dead when it has not polled or
	// reported for this long (wall clock; default max(3×scaled interval,
	// 2 s)).
	HeartbeatTTL time.Duration

	// MaxWall aborts runs exceeding this wall-clock horizon (default
	// 15 min) — the live counterpart of sim.Config.MaxSimTime.
	MaxWall time.Duration

	// MaxTaskAttempts quarantines a task after this many failed attempts
	// (failed completion reports or reclaims of its lease). Zero disables
	// quarantine: a poison task is retried forever, the pre-self-healing
	// behaviour. With quarantine on, a run whose remaining tasks are all
	// quarantined (or unreachable behind one) finishes Done but Degraded.
	MaxTaskAttempts int

	// RequeueBase seeds the exponential requeue delay after a failed
	// attempt (wall clock, default 100ms, capped at 5 s): attempt n waits
	// RequeueBase·2^(n-1) before re-entering the ready queue, so a poison
	// task cannot monopolize the pool between failures.
	RequeueBase time.Duration

	// SpeculationFactor enables speculative straggler re-execution: when a
	// running lease's elapsed simulated time exceeds SpeculationFactor ×
	// the run's own online-predicted occupancy for the task, a duplicate
	// lease is issued to a different healthy agent; first completion wins
	// and the loser is superseded. Zero disables speculation.
	SpeculationFactor float64

	// Journal, when set, receives every agent/lease lifecycle record (see
	// Record). Appends happen under the dispatcher lock, in order.
	Journal RecordSink

	// Spec, when set alongside Journal, is the marshaled CreateRunRequest
	// journaled as the run's first record (RecRunCreated) so a restarted
	// daemon can rebuild the dispatcher configuration from the journal
	// alone.
	Spec []byte
	// workflowDigest, for a run created by workflow_key, is the generated
	// workflow's workloads.Digest, journaled beside Spec: recovery
	// regenerates the workflow and refuses the run if it no longer matches.
	workflowDigest string

	// Logf, when set, receives operational log lines.
	Logf func(format string, args ...any)

	// now and after stand in for the wall clock and for the one wake timer a
	// run arms on it (tests; the defaults are the real clock and a real timer).
	now   func() time.Time
	after func(time.Duration, func()) (stop func() bool)

	// doaGrace is how long past its nominal activation a launch order may
	// stay unbound to an agent before being written off dead-on-arrival
	// and canceled unbilled, in simulated seconds (default: one interval).
	doaGrace simtime.Duration
	// healthCooldown is how long an agent blacklisted by health scoring
	// gets no new leases (default 15 s).
	healthCooldown time.Duration
}

// Agent health scoring: an agent whose failure events (failed reports,
// deadline lapses, reclaims) reach healthMinEvents with a failure ratio of at
// least healthFailureRatio is blacklisted by name — no new leases — until its
// healthCooldown elapses.
const (
	healthMinEvents    = 3
	healthFailureRatio = 0.5
)

func (c Config) withDefaults() (Config, error) {
	if c.Workflow == nil {
		return c, fmt.Errorf("exec: Workflow is required")
	}
	if c.Controller == nil {
		return c, fmt.Errorf("exec: Controller is required")
	}
	if err := c.Cloud.Validate(); err != nil {
		return c, err
	}
	if err := c.Workflow.Validate(); err != nil {
		return c, err
	}
	if c.Interval <= 0 {
		if c.Cloud.LagTime > 0 {
			c.Interval = c.Cloud.LagTime
		} else {
			c.Interval = 1
		}
	}
	if c.InitialInstances <= 0 {
		c.InitialInstances = 1
	}
	if c.Timescale <= 0 {
		c.Timescale = 1
	}
	if c.BusyFrac < 0 || c.BusyFrac > 1 {
		return c, fmt.Errorf("exec: BusyFrac %v outside [0,1]", c.BusyFrac)
	}
	if c.BusyFrac == 0 {
		c.BusyFrac = 0.2
	}
	if c.LeaseFactor <= 0 {
		c.LeaseFactor = 4
	}
	if c.LeaseSlack <= 0 {
		c.LeaseSlack = 2 * time.Second
	}
	if c.HeartbeatTTL <= 0 {
		scaled := time.Duration(c.Interval / c.Timescale * float64(time.Second))
		c.HeartbeatTTL = 3 * scaled
		if c.HeartbeatTTL < 2*time.Second {
			c.HeartbeatTTL = 2 * time.Second
		}
	}
	if c.doaGrace <= 0 {
		c.doaGrace = c.Interval
	}
	if c.MaxWall <= 0 {
		c.MaxWall = 15 * time.Minute
	}
	if c.MaxTaskAttempts < 0 {
		return c, fmt.Errorf("exec: negative MaxTaskAttempts %d", c.MaxTaskAttempts)
	}
	if c.RequeueBase <= 0 {
		c.RequeueBase = 100 * time.Millisecond
	}
	if c.SpeculationFactor < 0 {
		return c, fmt.Errorf("exec: negative SpeculationFactor %v", c.SpeculationFactor)
	}
	if c.healthCooldown <= 0 {
		c.healthCooldown = 15 * time.Second
	}
	if c.Logf == nil {
		c.Logf = func(string, ...any) {}
	}
	if c.now == nil {
		c.now = time.Now
	}
	if c.after == nil {
		c.after = func(d time.Duration, f func()) func() bool { return time.AfterFunc(d, f).Stop }
	}
	return c, nil
}

// Counters are the live plane's operational counters. The lease identity
// LeasesGranted == LeasesCompleted + LeasesReclaimed + LeasesSuperseded +
// outstanding holds at all times; LeasesLost counts violations (leases still
// outstanding when a run finished) and must stay zero.
type Counters struct {
	AgentsRegistered int64 `json:"agents_registered"`
	AgentsFailed     int64 `json:"agents_failed"`

	LeasesGranted   int64 `json:"leases_granted"`
	LeasesCompleted int64 `json:"leases_completed"`
	LeasesReclaimed int64 `json:"leases_reclaimed"`
	LeasesLost      int64 `json:"leases_lost"`

	// LeasesSuperseded counts leases retired because the task's duplicate
	// lease finished first (speculation) or because the losing copy's
	// agent went away while a healthy duplicate survived.
	LeasesSuperseded int64 `json:"leases_superseded"`

	// StaleReports counts transfer/complete reports for leases that were
	// already reclaimed or finished — late messages from failed agents,
	// acknowledged but ignored.
	StaleReports int64 `json:"stale_reports"`

	// DOAWriteoffs counts launch orders written off dead-on-arrival
	// because no agent bound within the grace window.
	DOAWriteoffs int64 `json:"doa_writeoffs"`

	// QuarantinedTasks counts tasks retired after exhausting their attempt
	// budget (Config.MaxTaskAttempts); any of these > 0 means the run
	// finished degraded.
	QuarantinedTasks int64 `json:"quarantined_tasks_total"`

	// Speculation outcome counters: duplicates launched for suspected
	// stragglers, duplicates that finished first, and duplicates whose
	// original finished first (wasted work).
	SpeculationsLaunched int64 `json:"speculations_launched_total"`
	SpeculationsWon      int64 `json:"speculations_won_total"`
	SpeculationsWasted   int64 `json:"speculations_wasted_total"`

	// AgentsBlacklisted counts health-score blacklist decisions (an agent
	// re-blacklisted after cooldown counts again).
	AgentsBlacklisted int64 `json:"blacklisted_agents"`

	// JournalErrors counts journal appends that returned an error: records
	// that reached the file late (the next append repairs a failed write) or,
	// once the journal is detached as unusable, not at all.
	JournalErrors int64 `json:"journal_errors"`
}

// Add accumulates another counter set (the registry aggregates across runs).
func (c *Counters) Add(o Counters) {
	c.AgentsRegistered += o.AgentsRegistered
	c.AgentsFailed += o.AgentsFailed
	c.LeasesGranted += o.LeasesGranted
	c.LeasesCompleted += o.LeasesCompleted
	c.LeasesReclaimed += o.LeasesReclaimed
	c.LeasesLost += o.LeasesLost
	c.LeasesSuperseded += o.LeasesSuperseded
	c.StaleReports += o.StaleReports
	c.DOAWriteoffs += o.DOAWriteoffs
	c.QuarantinedTasks += o.QuarantinedTasks
	c.SpeculationsLaunched += o.SpeculationsLaunched
	c.SpeculationsWon += o.SpeculationsWon
	c.SpeculationsWasted += o.SpeculationsWasted
	c.AgentsBlacklisted += o.AgentsBlacklisted
	c.JournalErrors += o.JournalErrors
}
