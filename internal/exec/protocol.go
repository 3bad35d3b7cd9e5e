package exec

import (
	"encoding/json"
	"time"

	"repro/internal/dag"
	"repro/internal/dagio"
	"repro/internal/simtime"
)

// The lease protocol's JSON wire types, shared by the dispatcher handlers,
// the agent client, and the examples/live-run program. All simulated
// durations travel in seconds (snake_case `_s` suffix), wall durations in
// milliseconds (`_ms`), matching the service package's conventions.

// CreateRunRequest is the POST /v1/live/runs body. Exactly one workflow
// source must be set.
type CreateRunRequest struct {
	// Workflow is an inline workflow document (the dagio format).
	Workflow *dagio.Document `json:"workflow,omitempty"`
	// WorkflowKey names a Table I catalogue run ("genome-s", ...);
	// WorkflowSeed drives its generator (default 1).
	WorkflowKey  string `json:"workflow_key,omitempty"`
	WorkflowSeed int64  `json:"workflow_seed,omitempty"`

	// Policy selects the controller (default "wire"); Controller is the
	// opaque policy-specific tuning blob forwarded to the registry's
	// controller factory (the service's ControllerSpec).
	Policy     string          `json:"policy,omitempty"`
	Controller json.RawMessage `json:"controller,omitempty"`

	// Site/billing parameters, in simulated seconds.
	SlotsPerInstance int              `json:"slots_per_instance"`
	LagTimeS         simtime.Duration `json:"lag_time_s"`
	ChargingUnitS    simtime.Duration `json:"charging_unit_s"`
	MaxInstances     int              `json:"max_instances,omitempty"`
	IntervalS        simtime.Duration `json:"interval_s,omitempty"`
	InitialInstances int              `json:"initial_instances,omitempty"`

	// Timescale compresses simulated seconds onto the wall clock
	// (default 1).
	Timescale float64 `json:"timescale,omitempty"`
	// BusyFrac is the emulator busy-spin fraction hint (default 0.2).
	BusyFrac float64 `json:"busy_frac,omitempty"`

	// Lease/liveness tuning (wall milliseconds; zero = defaults).
	LeaseFactor    float64 `json:"lease_factor,omitempty"`
	LeaseSlackMs   int64   `json:"lease_slack_ms,omitempty"`
	HeartbeatTTLMs int64   `json:"heartbeat_ttl_ms,omitempty"`
	MaxWallMs      int64   `json:"max_wall_ms,omitempty"`

	// Self-healing knobs (see Config): attempt budget before quarantine
	// (0 = retry forever), requeue backoff seed, and the straggler
	// speculation threshold factor (0 = no speculation).
	MaxTaskAttempts   int     `json:"max_task_attempts,omitempty"`
	RequeueBaseMs     int64   `json:"requeue_base_ms,omitempty"`
	SpeculationFactor float64 `json:"speculation_factor,omitempty"`

	// Start launches the run clock immediately. Default false: the
	// caller registers agents first and POSTs …/start.
	Start bool `json:"start,omitempty"`
}

// RunInfo describes one live run in API responses.
type RunInfo struct {
	ID        string   `json:"id"`
	Workflow  string   `json:"workflow"`
	Tasks     int      `json:"tasks"`
	Stages    int      `json:"stages"`
	Policy    string   `json:"policy"`
	Timescale float64  `json:"timescale"`
	State     RunState `json:"state"`
}

// AgentStatus is one agent's row in a run status response.
type AgentStatus struct {
	ID    string `json:"id"`
	Name  string `json:"name,omitempty"`
	Slots int    `json:"slots"`
	// Status is parked | pending | active | draining.
	Status string `json:"status"`
	// Instance is the bound logical instance (absent while parked).
	Instance     *int `json:"instance,omitempty"`
	ActiveLeases int  `json:"active_leases"`
	// Blacklisted is true while health scoring is withholding new leases
	// from this agent (by name), pending cooldown.
	Blacklisted bool `json:"blacklisted,omitempty"`
}

// RunStatusResponse is the GET /v1/live/runs/{id} body.
type RunStatusResponse struct {
	RunInfo
	NowS           simtime.Time  `json:"now_s"`
	AgentsRequired int           `json:"agents_required"`
	Agents         []AgentStatus `json:"agents,omitempty"`
	TasksCompleted int           `json:"tasks_completed"`
	Decisions      int           `json:"decisions"`
	Counters       Counters      `json:"counters"`
	// Result is the final run summary, present once State is done. It
	// reuses the simulator's result type so live and simulated runs are
	// reported identically.
	Result *LiveResult `json:"result,omitempty"`
	Error  string      `json:"error,omitempty"`
}

// RegisterRequest is the POST /v1/live/runs/{id}/agents body.
type RegisterRequest struct {
	Name  string `json:"name,omitempty"`
	Slots int    `json:"slots"`
}

// RegisterResponse tells the agent its identity and cadence.
type RegisterResponse struct {
	AgentID string `json:"agent_id"`
	// HeartbeatTTLMs is how often the agent must be heard from; poll at
	// least twice per TTL.
	HeartbeatTTLMs int64 `json:"heartbeat_ttl_ms"`
}

// TaskSpec is what an agent emulates for one lease: the ground-truth task
// mix the dispatcher replays (standing in for the paper's emulated task mix
// on ExoGENI), scaled by Timescale. Measured times — wall-clock observations
// scaled back to simulated seconds — are what the monitoring plane sees; the
// spec itself never reaches the controller.
type TaskSpec struct {
	ExecS     simtime.Duration `json:"exec_s"`
	TransferS simtime.Duration `json:"transfer_s"`
	InputMB   float64          `json:"input_mb"`
	Timescale float64          `json:"timescale"`
	BusyFrac  float64          `json:"busy_frac"`
}

// Lease is one granted task execution.
type Lease struct {
	ID    int64       `json:"id"`
	Task  dag.TaskID  `json:"task"`
	Stage dag.StageID `json:"stage"`
	Spec  TaskSpec    `json:"spec"`
	// DeadlineMs is the wall-clock lease TTL from grant; agents that blow
	// it are declared failed and the task is reclaimed.
	DeadlineMs int64 `json:"deadline_ms"`
	// Attempt is the task's execution attempt number (1 for the first
	// try).
	Attempt int `json:"attempt,omitempty"`
	// Speculative marks a straggler re-execution duplicate.
	Speculative bool `json:"speculative,omitempty"`
}

// PollRequest is the POST …/agents/{agent}/poll body. The poll doubles as
// the agent heartbeat.
type PollRequest struct {
	// WaitMs long-polls up to this long when no work is available
	// (default 0: return immediately; capped at 30 s).
	WaitMs int64 `json:"wait_ms,omitempty"`
}

// PollResponse carries new leases and the agent's admission status.
type PollResponse struct {
	Leases []Lease `json:"leases,omitempty"`
	// Status is parked | pending | active | draining.
	Status string `json:"status"`
	// Done tells the agent the run has finished; it should drain
	// in-flight work and exit.
	Done bool `json:"done,omitempty"`
}

// TransferReport is the POST …/leases/{lease}/transfer body: the measured
// input-transfer duration, sent when the emulated transfer phase completes
// (the kickstart record the transfer estimator consumes, §III-B1).
type TransferReport struct {
	TransferS simtime.Duration `json:"transfer_s"`
}

// CompleteReport is the POST …/leases/{lease}/complete body: the measured
// execution/transfer durations and input size for the finished task.
type CompleteReport struct {
	ExecS     simtime.Duration `json:"exec_s"`
	TransferS simtime.Duration `json:"transfer_s"`
	InputMB   float64          `json:"input_mb"`

	// Failed reports an unsuccessful attempt (task crash): the lease is
	// consumed, the agent's health score is debited, and the task is
	// requeued with backoff against its attempt budget.
	Failed bool   `json:"failed,omitempty"`
	Error  string `json:"error,omitempty"`
}

// Ack is the generic accepted/stale response to lease reports. Stale means
// the lease was already reclaimed or the run is over; the agent drops the
// work silently (the task has been requeued elsewhere).
type Ack struct {
	Stale bool `json:"stale,omitempty"`
}

// PlanStreamResponse is the GET /v1/live/runs/{id}/stream body: the recorded
// snapshot→decision pairs for the parity twin.
type PlanStreamResponse struct {
	Records []PlanRecord `json:"records"`
}

// wallMs converts a millisecond field to a duration.
func wallMs(ms int64) time.Duration { return time.Duration(ms) * time.Millisecond }
