// Package wire is the public API of the WIRE reproduction: a
// resource-efficient auto-scaler for DAG-based workflows on IaaS clouds
// with online prediction (Xie et al., IEEE CLUSTER 2021).
//
// The package re-exports what the programs in examples/ and the README call,
// so a downstream user needs a single import:
//
//	wf := wire.NewWorkflowBuilder("my-flow")
//	... add stages and tasks ...
//	res, err := wire.Run(wf.MustBuild(), wire.NewController(wire.ControllerConfig{}), wire.RunConfig{
//	    Cloud: wire.CloudConfig{SlotsPerInstance: 4, LagTime: 180, ChargingUnit: 3600, MaxInstances: 12},
//	})
//
// See examples/ for runnable programs and internal/experiments for the
// paper's evaluation harness.
package wire

import (
	"context"

	"repro/internal/baseline"
	"repro/internal/cloud"
	"repro/internal/core"
	"repro/internal/dag"
	"repro/internal/dagio"
	"repro/internal/exec"
	"repro/internal/monitor"
	"repro/internal/service"
	"repro/internal/sim"
	"repro/internal/workloads"
)

// Workflow model.
type (
	// Workflow is an immutable task DAG.
	Workflow = dag.Workflow
	// TaskID identifies a task within a workflow.
	TaskID = dag.TaskID
	// WorkflowBuilder assembles workflows incrementally.
	WorkflowBuilder = dag.Builder
)

// NewWorkflowBuilder returns a builder for a named workflow.
func NewWorkflowBuilder(name string) *WorkflowBuilder { return dag.NewBuilder(name) }

// Cloud and execution simulation.
type (
	// CloudConfig describes the simulated IaaS site.
	CloudConfig = cloud.Config
	// RunConfig parameterizes one simulated execution.
	RunConfig = sim.Config
	// RunResult summarizes a completed execution.
	RunResult = sim.Result
	// Controller plans the worker pool once per MAPE interval.
	Controller = sim.Controller
	// Decision is a controller's pool-change order set.
	Decision = sim.Decision
	// ReleaseOrder asks for one instance release.
	ReleaseOrder = sim.ReleaseOrder
	// Snapshot is the monitoring view a controller receives each MAPE
	// interval.
	Snapshot = monitor.Snapshot
)

// Run executes a workflow under a controller on the simulated site.
func Run(wf *Workflow, ctrl Controller, cfg RunConfig) (*RunResult, error) {
	return sim.Run(wf, ctrl, cfg)
}

// The WIRE controller and its comparators.
type (
	// ControllerConfig tunes the WIRE controller; the zero value
	// reproduces the paper's settings.
	ControllerConfig = core.Config
	// WireController is the MAPE-loop auto-scaler of the paper.
	WireController = core.Controller
	// DeadlineConfig tunes the deadline controller.
	DeadlineConfig = core.DeadlineConfig
	// DeadlineController buys the cheapest pool expected to finish by
	// the target, reusing WIRE's online prediction and DAG lookahead.
	DeadlineController = core.DeadlineController
	// StageProfile records per-stage task statistics from a previous run.
	StageProfile = baseline.StageProfile
	// HistoryBasedController steers from a frozen previous-run profile —
	// the Jockey/Apollo-style planner the paper contrasts.
	HistoryBasedController = baseline.HistoryBased
)

// NewController returns a WIRE controller.
func NewController(cfg ControllerConfig) *WireController { return core.New(cfg) }

// NewDeadlineController returns a deadline controller.
func NewDeadlineController(cfg DeadlineConfig) *DeadlineController { return core.NewDeadline(cfg) }

// NewHistoryBased returns a controller planning from a recorded profile.
func NewHistoryBased(profile StageProfile) *HistoryBasedController {
	return baseline.NewHistoryBased(profile)
}

// Baseline policies (§IV-C3).
var (
	// FullSite is the static full-site comparator; pair with
	// RunConfig.InitialInstances = CloudConfig.MaxInstances.
	FullSite Controller = baseline.Static{}
	// PureReactive sizes the pool to the instantaneous active load.
	PureReactive Controller = baseline.PureReactive{}
)

// NewReactiveConserving returns the reactive-conserving comparator (it is
// stateful, so each run needs a fresh instance).
func NewReactiveConserving() Controller { return &baseline.ReactiveConserving{} }

// CatalogRun is one workflow × dataset pair from the paper's Table I.
type CatalogRun = workloads.Run

// CatalogByKey finds a catalogued run ("genome-s", "tpch1-l", ...).
func CatalogByKey(key string) (CatalogRun, bool) { return workloads.ByKey(key) }

// LinearWorkflow returns the single-stage workflow of the §IV-A study: n
// independent tasks of r seconds each.
func LinearWorkflow(n int, r float64) *Workflow { return workloads.Linear(n, r) }

// ReadWorkflow and WriteWorkflow (de)serialize workflows as JSON;
// EncodeWorkflow converts one to the document form that
// CreateSessionRequest.Workflow expects.
var (
	ReadWorkflow   = dagio.Read
	WriteWorkflow  = dagio.Write
	EncodeWorkflow = dagio.Encode
)

// Controller-as-a-service: host controllers behind wire-serve's JSON API
// and plan over HTTP.
type (
	// ServiceConfig tunes the wire-serve daemon.
	ServiceConfig = service.Config
	// ServiceServer hosts concurrent controller sessions over HTTP.
	ServiceServer = service.Server
	// ServiceClient is the typed client for a wire-serve daemon.
	ServiceClient = service.Client
	// ServiceClientOption customizes NewServiceClient.
	ServiceClientOption = service.ClientOption
	// ServiceRetryPolicy bounds the client's exponential-backoff retries.
	ServiceRetryPolicy = service.RetryPolicy
	// RemoteController plans through a wire-serve session; it satisfies
	// Controller so Run can execute against a daemon.
	RemoteController = service.RemoteController
	// CreateSessionRequest opens a controller session on a daemon.
	CreateSessionRequest = service.CreateSessionRequest
	// ControllerSpec carries per-session controller tuning over the API.
	ControllerSpec = service.ControllerSpec
)

// NewServiceServer returns an unstarted wire-serve daemon; mount
// Handler() on any listener or drive it with Serve. Set
// ServiceConfig.JournalDir to enable the crash-recovery journal.
func NewServiceServer(cfg ServiceConfig) *ServiceServer { return service.New(cfg) }

// NewServiceClient returns a client for the daemon at baseURL.
func NewServiceClient(baseURL string, opts ...ServiceClientOption) *ServiceClient {
	return service.NewClient(baseURL, opts...)
}

// WithServiceRetry enables client retries with exponential backoff and full
// jitter; paired with plan sequence numbers, retried planning stays
// exactly-once.
var WithServiceRetry = service.WithRetry

// NewRemoteController opens a session on a daemon and returns a Controller
// that plans through it; ctx bounds the session's whole lifetime.
func NewRemoteController(ctx context.Context, c *ServiceClient, req CreateSessionRequest) (*RemoteController, error) {
	return service.NewRemoteController(ctx, c, req)
}

// NewPolicyController builds a controller by policy name ("wire",
// "deadline", "full-site", "pure-reactive", "reactive-conserving") — the
// same registry wire-serve uses server-side.
func NewPolicyController(policy string, spec *ControllerSpec) (Controller, error) {
	return service.NewPolicyController(policy, spec)
}

// Live execution plane: wire-agent workers leasing emulated tasks from a
// dispatcher that closes the MAPE loop on wall-clock measurements.
type (
	// LiveClient is the typed client for the daemon's /v1/live API; both
	// run drivers and agents use it.
	LiveClient = exec.LiveClient
	// LiveAgentConfig tunes one worker agent (RunLiveAgent / cmd/wire-agent).
	LiveAgentConfig = exec.AgentConfig
	// LiveRunRequest creates a live run on a daemon.
	LiveRunRequest = exec.CreateRunRequest
	// LiveRunStatus is the run status document, including the lease
	// counters that certify zero lost leases.
	LiveRunStatus = exec.RunStatusResponse
	// PlanRecord pairs the snapshot a live controller saw with the
	// decision it made; TwinVerify replays these for the parity check.
	PlanRecord = exec.PlanRecord
)

// NewLiveClient returns a live-plane client for the daemon at baseURL.
func NewLiveClient(baseURL string) *LiveClient { return exec.NewLiveClient(baseURL) }

// RunLiveAgent runs a worker agent against a live run until the run
// completes or ctx is canceled — the library form of cmd/wire-agent.
func RunLiveAgent(ctx context.Context, cfg LiveAgentConfig) error { return exec.RunAgent(ctx, cfg) }

// TwinVerify replays a live run's recorded snapshots through a fresh
// controller and errors unless the decision stream is byte-identical: the
// live-vs-sim parity certificate.
func TwinVerify(records []PlanRecord, twin Controller) error { return exec.TwinVerify(records, twin) }
