// Package wire is the public API of the WIRE reproduction: a
// resource-efficient auto-scaler for DAG-based workflows on IaaS clouds
// with online prediction (Xie et al., IEEE CLUSTER 2021).
//
// The package re-exports the stable surface of the internal packages so a
// downstream user needs a single import:
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
	"repro/internal/chaos"
	"repro/internal/cloud"
	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/dag"
	"repro/internal/dagio"
	"repro/internal/dax"
	"repro/internal/dot"
	"repro/internal/exec"
	"repro/internal/monitor"
	"repro/internal/predict"
	"repro/internal/service"
	"repro/internal/sim"
	"repro/internal/trace"
	"repro/internal/workloads"
)

// Workflow model.
type (
	// Workflow is an immutable task DAG.
	Workflow = dag.Workflow
	// Task is one schedulable unit.
	Task = dag.Task
	// Stage groups peer tasks sharing an executable and dependencies.
	Stage = dag.Stage
	// TaskID identifies a task within a workflow.
	TaskID = dag.TaskID
	// StageID identifies a stage within a workflow.
	StageID = dag.StageID
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
)

// Run executes a workflow under a controller on the simulated site.
func Run(wf *Workflow, ctrl Controller, cfg RunConfig) (*RunResult, error) {
	return sim.Run(wf, ctrl, cfg)
}

// Monitoring surface, for writing custom controllers.
type (
	// Snapshot is the monitoring view a controller receives each MAPE
	// interval.
	Snapshot = monitor.Snapshot
	// TaskRecord is the monitoring view of one task.
	TaskRecord = monitor.TaskRecord
	// InstanceRecord is the monitoring view of one worker instance.
	InstanceRecord = monitor.InstanceRecord
	// TaskState is a task lifecycle state.
	TaskState = monitor.TaskState
	// ReleaseOrder asks for one instance release.
	ReleaseOrder = sim.ReleaseOrder
	// InstanceID identifies a worker instance.
	InstanceID = cloud.InstanceID
)

// Task lifecycle states.
const (
	TaskBlocked   = monitor.Blocked
	TaskReady     = monitor.Ready
	TaskRunning   = monitor.Running
	TaskCompleted = monitor.Completed
)

// The WIRE controller and its comparators.
type (
	// ControllerConfig tunes the WIRE controller; the zero value
	// reproduces the paper's settings.
	ControllerConfig = core.Config
	// WireController is the MAPE-loop auto-scaler of the paper.
	WireController = core.Controller
	// PredictorConfig tunes the online prediction policies.
	PredictorConfig = predict.Config
)

// NewController returns a WIRE controller.
func NewController(cfg ControllerConfig) *WireController { return core.New(cfg) }

// Deadline extension: minimize cost subject to a completion target.
type (
	// DeadlineConfig tunes the deadline controller.
	DeadlineConfig = core.DeadlineConfig
	// DeadlineController buys the cheapest pool expected to finish by
	// the target, reusing WIRE's online prediction and DAG lookahead.
	DeadlineController = core.DeadlineController
)

// NewDeadlineController returns a deadline controller.
func NewDeadlineController(cfg DeadlineConfig) *DeadlineController { return core.NewDeadline(cfg) }

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

// History-based comparison (§II-B, Observation 2).
type (
	// StageProfile records per-stage task statistics from a previous run.
	StageProfile = baseline.StageProfile
	// HistoryBasedController steers from a frozen previous-run profile —
	// the Jockey/Apollo-style planner the paper contrasts.
	HistoryBasedController = baseline.HistoryBased
)

// ProfileFromResult extracts a stage profile from a completed run.
func ProfileFromResult(res *RunResult) StageProfile { return baseline.ProfileFromResult(res) }

// NewHistoryBased returns a controller planning from a recorded profile.
func NewHistoryBased(profile StageProfile) *HistoryBasedController {
	return baseline.NewHistoryBased(profile)
}

// Workload catalogue (Table I) and serialization.
type (
	// CatalogRun is one workflow × dataset pair from the paper's
	// Table I.
	CatalogRun = workloads.Run
	// WorkflowSpec declares a synthetic workflow.
	WorkflowSpec = workloads.Spec
)

// Catalog returns the eight Table I runs.
func Catalog() []CatalogRun { return workloads.Catalog() }

// CatalogByKey finds a catalogued run ("genome-s", "tpch1-l", ...).
func CatalogByKey(key string) (CatalogRun, bool) { return workloads.ByKey(key) }

// LinearWorkflow returns the single-stage workflow of the §IV-A study: n
// independent tasks of r seconds each.
func LinearWorkflow(n int, r float64) *Workflow { return workloads.Linear(n, r) }

// ReadWorkflow and WriteWorkflow (de)serialize workflows as JSON.
var (
	ReadWorkflow  = dagio.Read
	WriteWorkflow = dagio.Write
)

// DAXOptions tunes Pegasus DAX imports.
type DAXOptions = dax.Options

// ReadDAX and WriteDAX (de)serialize workflows as Pegasus DAX XML.
var (
	ReadDAX  = dax.Read
	WriteDAX = dax.Write
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

// NewServiceClient returns a client for the daemon at baseURL. Options tune
// timeouts, transports, and retries (see WithServiceRetry).
func NewServiceClient(baseURL string, opts ...ServiceClientOption) *ServiceClient {
	return service.NewClient(baseURL, opts...)
}

// NewRemoteController opens a session on a daemon and returns a Controller
// that plans through it; ctx bounds the session's whole lifetime.
func NewRemoteController(ctx context.Context, c *ServiceClient, req CreateSessionRequest) (*RemoteController, error) {
	return service.NewRemoteController(ctx, c, req)
}

// Fault injection and fault tolerance.
type (
	// ChaosPlan is the seeded deterministic fault-injection plan: network
	// faults for the service client, cloud faults for RunConfig.Faults.
	ChaosPlan = chaos.Plan
	// FaultInjector perturbs the cloud side of a simulated run
	// (RunConfig.Faults); ChaosPlan.CloudFaults builds one.
	FaultInjector = sim.FaultInjector
	// ServiceClientOption customizes NewServiceClient.
	ServiceClientOption = service.ClientOption
	// ServiceRetryPolicy bounds the client's exponential-backoff retries.
	ServiceRetryPolicy = service.RetryPolicy
)

// Service client options.
var (
	// WithServiceTimeout replaces the client's whole-request timeout.
	WithServiceTimeout = service.WithTimeout
	// WithServiceTransport wraps the HTTP transport (chaos injection).
	WithServiceTransport = service.WithTransport
	// WithServiceRetry enables retries with exponential backoff and full
	// jitter; paired with plan sequence numbers, retried planning stays
	// exactly-once.
	WithServiceRetry = service.WithRetry
)

// NewPolicyController builds a controller by policy name ("wire",
// "deadline", "full-site", "pure-reactive", "reactive-conserving") — the
// same registry wire-serve uses server-side.
func NewPolicyController(policy string, spec *ControllerSpec) (Controller, error) {
	return service.NewPolicyController(policy, spec)
}

// EncodeWorkflow converts a workflow to its JSON document form, as
// CreateSessionRequest.Workflow expects.
var EncodeWorkflow = dagio.Encode

// Live execution plane: wire-agent workers leasing emulated tasks from a
// dispatcher that closes the MAPE loop on wall-clock measurements.
type (
	// LiveClient is the typed client for the daemon's /v1/live API; both
	// run drivers and agents use it.
	LiveClient = exec.LiveClient
	// LiveAgentConfig tunes one worker agent (RunAgent / cmd/wire-agent).
	LiveAgentConfig = exec.AgentConfig
	// LiveRunRequest creates a live run on a daemon.
	LiveRunRequest = exec.CreateRunRequest
	// LiveRunStatus is the run status document, including the lease
	// counters that certify zero lost leases.
	LiveRunStatus = exec.RunStatusResponse
	// LiveResult summarizes a finished live run in the same cost/makespan
	// vocabulary as RunResult.
	LiveResult = exec.LiveResult
	// PlanRecord pairs the snapshot a live controller saw with the
	// decision it made; TwinVerify replays these for the parity check.
	PlanRecord = exec.PlanRecord
)

// NewLiveClient returns a live-plane client for the daemon at baseURL.
func NewLiveClient(baseURL string) *LiveClient { return exec.NewLiveClient(baseURL, nil) }

// RunLiveAgent runs a worker agent against a live run until the run
// completes or ctx is canceled — the library form of cmd/wire-agent.
func RunLiveAgent(ctx context.Context, cfg LiveAgentConfig) error { return exec.RunAgent(ctx, cfg) }

// TwinVerify replays a live run's recorded snapshots through a fresh
// controller and errors unless the decision stream is byte-identical: the
// live-vs-sim parity certificate.
func TwinVerify(records []PlanRecord, twin Controller) error { return exec.TwinVerify(records, twin) }

// Tracing and visualization.
type (
	// TraceRecorder hooks into RunConfig.Observer and records every
	// lifecycle event of a run.
	TraceRecorder = trace.Recorder
	// SimEvent is one observer notification.
	SimEvent = sim.Event
	// DOTOptions tunes Graphviz exports.
	DOTOptions = dot.Options
)

// NewTraceRecorder returns an empty trace recorder.
func NewTraceRecorder() *TraceRecorder { return trace.NewRecorder() }

// Gantt renders per-instance slot occupancy as a text chart.
func Gantt(res *RunResult, width int) string { return trace.Gantt(res, width) }

// WriteDOT renders a workflow as a Graphviz DOT document.
var WriteDOT = dot.Write

// Sharded control plane: a stateless router consistent-hashes sessions onto
// a fleet of shard daemons and fails dead shards over by journal handoff.
type (
	// ClusterShard is one session-shard daemon in the static shard map.
	ClusterShard = cluster.Shard
	// ClusterRouterConfig tunes the routing front end (`wire-serve route`).
	ClusterRouterConfig = cluster.RouterConfig
	// ClusterRouter is the stateless routing front end; run its heartbeat
	// loop with Run and mount Handler on a listener.
	ClusterRouter = cluster.Router
)

// NewClusterRouter builds a router over a static shard map.
func NewClusterRouter(cfg ClusterRouterConfig) (*ClusterRouter, error) {
	return cluster.NewRouter(cfg)
}
