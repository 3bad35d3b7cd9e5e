package exec

import (
	"context"
	"crypto/rand"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"path/filepath"
	"sort"
	"strconv"
	"sync"
	"time"

	"repro/internal/cloud"
	"repro/internal/dag"
	"repro/internal/sim"
	"repro/internal/wal"
	"repro/internal/workloads"
)

// ControllerFactory builds a controller for a policy name and an opaque
// tuning blob. The service injects its policy registry here, keeping the
// dependency direction service→exec.
type ControllerFactory func(policy string, spec json.RawMessage) (sim.Controller, error)

// RegistryConfig parameterizes a Registry.
type RegistryConfig struct {
	// Factory resolves policy names to controllers. Required.
	Factory ControllerFactory
	// MaxRuns caps concurrently tracked runs (default 8).
	MaxRuns int
	// JournalDir, when set, gives every run a JSONL agent-event journal at
	// <dir>/live-<id>.jsonl.
	JournalDir string
	// Sync is the journals' fsync policy (the zero value syncs every record).
	// Records are appended under the dispatcher lock, so under wal.SyncRecord
	// that lock is held across one fsync per record.
	Sync wal.Policy
	// Logf, when set, receives operational log lines.
	Logf func(format string, args ...any)
}

func (c RegistryConfig) withDefaults() (RegistryConfig, error) {
	if c.Factory == nil {
		return c, fmt.Errorf("exec: RegistryConfig.Factory is required")
	}
	if c.MaxRuns <= 0 {
		c.MaxRuns = 8
	}
	if c.Logf == nil {
		c.Logf = func(string, ...any) {}
	}
	return c, nil
}

// runEntry couples one dispatcher with its identity and journal file.
type runEntry struct {
	id   string
	d    *Dispatcher
	sink *FileSink
}

// Registry tracks the live runs a server hosts and serves the lease
// protocol under /v1/live/.
type Registry struct {
	cfg RegistryConfig

	mu       sync.Mutex
	runs     map[string]*runEntry
	draining bool
	// retired accumulates counters of deleted runs so aggregate metrics
	// survive DELETE.
	retired Counters
	// recovered counts runs resurrected from journals at startup.
	recovered int
}

// NewRegistry returns an empty run registry.
func NewRegistry(cfg RegistryConfig) (*Registry, error) {
	cfg, err := cfg.withDefaults()
	if err != nil {
		return nil, err
	}
	return &Registry{cfg: cfg, runs: make(map[string]*runEntry)}, nil
}

// RegistryMetrics is the live block of the server's /metrics dump.
type RegistryMetrics struct {
	Runs       int `json:"runs"`
	RunsActive int `json:"runs_active"`
	RunsDone   int `json:"runs_done"`
	RunsFailed int `json:"runs_failed"`
	// RunsRecovered counts runs resurrected from their journals when the
	// daemon restarted after a crash.
	RunsRecovered int      `json:"runs_recovered"`
	Counters      Counters `json:"counters"`
}

// Metrics aggregates the registry's operational counters across all runs
// (including deleted ones).
func (g *Registry) Metrics() RegistryMetrics {
	g.mu.Lock()
	entries := make([]*runEntry, 0, len(g.runs))
	for _, e := range g.runs {
		entries = append(entries, e)
	}
	m := RegistryMetrics{Counters: g.retired, RunsRecovered: g.recovered}
	g.mu.Unlock()
	for _, e := range entries {
		m.Runs++
		switch e.d.State() {
		case Running, Created:
			m.RunsActive++
		case Done:
			m.RunsDone++
		case Failed:
			m.RunsFailed++
		}
		m.Counters.Add(e.d.Counters())
	}
	return m
}

// Drain stops lease grants on every run and waits until no leases are
// outstanding (in-flight agent work has been reported or reclaimed), or ctx
// expires. It is the graceful-shutdown hook: HTTP connection draining alone
// would abandon agents mid-task and lose their measurements.
func (g *Registry) Drain(ctx context.Context) error {
	g.mu.Lock()
	g.draining = true
	entries := make([]*runEntry, 0, len(g.runs))
	for _, e := range g.runs {
		entries = append(entries, e)
	}
	g.mu.Unlock()
	for _, e := range entries {
		e.d.SetDraining(true)
	}
	tick := time.NewTicker(20 * time.Millisecond)
	defer tick.Stop()
	for {
		outstanding := 0
		for _, e := range entries {
			outstanding += e.d.OutstandingLeases()
		}
		if outstanding == 0 {
			return nil
		}
		select {
		case <-ctx.Done():
			return fmt.Errorf("exec: drain timed out with %d leases outstanding", outstanding)
		case <-tick.C:
		}
	}
}

// Mount registers the live-run routes on a mux (the server's main mux).
func (g *Registry) Mount(mux *http.ServeMux) {
	mux.HandleFunc("POST /v1/live/runs", g.handleCreate)
	mux.HandleFunc("GET /v1/live/runs", g.handleList)
	mux.HandleFunc("GET /v1/live/runs/{id}", g.handleStatus)
	mux.HandleFunc("POST /v1/live/runs/{id}/start", g.handleStart)
	mux.HandleFunc("GET /v1/live/runs/{id}/stream", g.handleStream)
	mux.HandleFunc("DELETE /v1/live/runs/{id}", g.handleDelete)
	mux.HandleFunc("POST /v1/live/runs/{id}/agents", g.handleRegister)
	mux.HandleFunc("POST /v1/live/runs/{id}/agents/{agent}/poll", g.handlePoll)
	mux.HandleFunc("POST /v1/live/runs/{id}/agents/{agent}/leases/{lease}/transfer", g.handleTransfer)
	mux.HandleFunc("POST /v1/live/runs/{id}/agents/{agent}/leases/{lease}/complete", g.handleComplete)
}

// maxLiveBody caps request bodies; lease reports are tiny, run creation
// with an inline workflow dominates.
const maxLiveBody = 16 << 20

type errorBody struct {
	Error string `json:"error"`
	Code  string `json:"code"`
}

func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	_ = json.NewEncoder(w).Encode(v)
}

func writeError(w http.ResponseWriter, status int, code, format string, args ...any) {
	writeJSON(w, status, errorBody{Error: fmt.Sprintf(format, args...), Code: code})
}

func readJSON(w http.ResponseWriter, r *http.Request, v any) bool {
	r.Body = http.MaxBytesReader(w, r.Body, maxLiveBody)
	if err := json.NewDecoder(r.Body).Decode(v); err != nil {
		writeError(w, http.StatusBadRequest, "bad_request", "invalid JSON body: %v", err)
		return false
	}
	return true
}

func newRunID() string {
	var b [8]byte
	if _, err := rand.Read(b[:]); err != nil {
		panic(fmt.Sprintf("exec: crypto/rand unavailable: %v", err))
	}
	return "live-" + hex.EncodeToString(b[:])
}

// ConfigFromRequest translates a create request into a dispatcher Config,
// consulting the factory for the controller. Exported for the in-process
// driver, which builds dispatchers without HTTP.
func ConfigFromRequest(req *CreateRunRequest, factory ControllerFactory) (Config, error) {
	wf, _, err := workloads.Resolve(req.Workflow, req.WorkflowKey, req.WorkflowSeed)
	if err != nil {
		return Config{}, fmt.Errorf("workflow: %w", err)
	}
	return configFor(req, wf, factory)
}

// configFor is ConfigFromRequest for the workflow the request resolved to.
func configFor(req *CreateRunRequest, wf *dag.Workflow, factory ControllerFactory) (Config, error) {
	policy := req.Policy
	if policy == "" {
		policy = "wire"
	}
	ctrl, err := factory(policy, req.Controller)
	if err != nil {
		return Config{}, err
	}
	return Config{
		Workflow:   wf,
		Controller: ctrl,
		Cloud: cloud.Config{
			SlotsPerInstance: req.SlotsPerInstance,
			LagTime:          req.LagTimeS,
			ChargingUnit:     req.ChargingUnitS,
			MaxInstances:     req.MaxInstances,
		},
		Interval:         req.IntervalS,
		InitialInstances: req.InitialInstances,
		Timescale:        req.Timescale,
		BusyFrac:         req.BusyFrac,
		LeaseFactor:      req.LeaseFactor,
		LeaseSlack:       wallMs(req.LeaseSlackMs),
		HeartbeatTTL:     wallMs(req.HeartbeatTTLMs),
		MaxWall:          wallMs(req.MaxWallMs),

		MaxTaskAttempts:   req.MaxTaskAttempts,
		RequeueBase:       wallMs(req.RequeueBaseMs),
		SpeculationFactor: req.SpeculationFactor,
	}, nil
}

func (g *Registry) handleCreate(w http.ResponseWriter, r *http.Request) {
	var req CreateRunRequest
	if !readJSON(w, r, &req) {
		return
	}
	g.mu.Lock()
	if g.draining {
		g.mu.Unlock()
		writeError(w, http.StatusServiceUnavailable, "draining", "server is draining; no new runs")
		return
	}
	if len(g.runs) >= g.cfg.MaxRuns {
		g.mu.Unlock()
		writeError(w, http.StatusTooManyRequests, "max_runs",
			"run limit %d reached; delete a run or retry later", g.cfg.MaxRuns)
		return
	}
	g.mu.Unlock()

	cfg, err := ConfigFromRequest(&req, g.cfg.Factory)
	if err != nil {
		writeError(w, http.StatusBadRequest, "bad_request", "%v", err)
		return
	}
	// Journal the full request so a restarted daemon can rebuild the
	// dispatcher from the run's own journal (crash recovery).
	cfg.Spec, _ = json.Marshal(&req)
	id := newRunID()
	cfg.Logf = func(format string, args ...any) {
		g.cfg.Logf("live %s: "+format, append([]any{id}, args...)...)
	}
	var sink *FileSink
	if g.cfg.JournalDir != "" {
		sink, err = NewFileSink(filepath.Join(g.cfg.JournalDir, id+".jsonl"), g.cfg.Sync)
		if err != nil {
			writeError(w, http.StatusInternalServerError, "internal", "journal: %v", err)
			return
		}
		cfg.Journal = sink
		if req.WorkflowKey != "" {
			cfg.workflowDigest = workloads.Digest(cfg.Workflow)
		}
	}
	d, err := NewDispatcher(cfg)
	if err != nil {
		if sink != nil {
			sink.Close()
		}
		writeError(w, http.StatusBadRequest, "bad_request", "%v", err)
		return
	}

	g.mu.Lock()
	if len(g.runs) >= g.cfg.MaxRuns || g.draining {
		g.mu.Unlock()
		d.Abort("rejected at capacity")
		if sink != nil {
			sink.Close()
		}
		writeError(w, http.StatusTooManyRequests, "max_runs", "run limit reached")
		return
	}
	g.runs[id] = &runEntry{id: id, d: d, sink: sink}
	g.mu.Unlock()
	g.cfg.Logf("live %s: created (%s, %d tasks, policy %s, timescale %gx)",
		id, d.Workflow().Name, d.Workflow().NumTasks(), d.Config().Controller.Name(), d.Config().Timescale)

	if req.Start {
		if err := d.Start(); err != nil {
			writeError(w, http.StatusInternalServerError, "internal", "start: %v", err)
			return
		}
	}
	writeJSON(w, http.StatusCreated, g.runInfo(id, d))
}

func (g *Registry) runInfo(id string, d *Dispatcher) RunInfo {
	wf := d.Workflow()
	return RunInfo{
		ID:        id,
		Workflow:  wf.Name,
		Tasks:     wf.NumTasks(),
		Stages:    wf.NumStages(),
		Policy:    d.Config().Controller.Name(),
		Timescale: d.Config().Timescale,
		State:     d.State(),
	}
}

func (g *Registry) get(w http.ResponseWriter, r *http.Request) *runEntry {
	id := r.PathValue("id")
	g.mu.Lock()
	e := g.runs[id]
	g.mu.Unlock()
	if e == nil {
		writeError(w, http.StatusNotFound, "not_found", "run %q not found", id)
		return nil
	}
	return e
}

func (g *Registry) handleList(w http.ResponseWriter, _ *http.Request) {
	g.mu.Lock()
	ids := make([]string, 0, len(g.runs))
	for id := range g.runs {
		ids = append(ids, id)
	}
	sort.Strings(ids)
	entries := make([]*runEntry, 0, len(ids))
	for _, id := range ids {
		entries = append(entries, g.runs[id])
	}
	g.mu.Unlock()
	out := make([]RunInfo, 0, len(entries))
	for _, e := range entries {
		out = append(out, g.runInfo(e.id, e.d))
	}
	writeJSON(w, http.StatusOK, out)
}

func (g *Registry) handleStatus(w http.ResponseWriter, r *http.Request) {
	e := g.get(w, r)
	if e == nil {
		return
	}
	resp := e.d.Status()
	resp.ID = e.id
	writeJSON(w, http.StatusOK, resp)
}

func (g *Registry) handleStart(w http.ResponseWriter, r *http.Request) {
	e := g.get(w, r)
	if e == nil {
		return
	}
	if err := e.d.Start(); err != nil {
		writeError(w, http.StatusConflict, "run_over", "%v", err)
		return
	}
	resp := e.d.Status()
	resp.ID = e.id
	writeJSON(w, http.StatusOK, resp)
}

func (g *Registry) handleStream(w http.ResponseWriter, r *http.Request) {
	e := g.get(w, r)
	if e == nil {
		return
	}
	writeJSON(w, http.StatusOK, PlanStreamResponse{Records: e.d.Records()})
}

func (g *Registry) handleDelete(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	g.mu.Lock()
	e := g.runs[id]
	if e != nil {
		delete(g.runs, id)
		g.retired.Add(e.d.Counters())
	}
	g.mu.Unlock()
	if e == nil {
		writeError(w, http.StatusNotFound, "not_found", "run %q not found", id)
		return
	}
	e.d.Abort("deleted")
	if e.sink != nil {
		e.sink.Close()
	}
	w.WriteHeader(http.StatusNoContent)
}

func (g *Registry) handleRegister(w http.ResponseWriter, r *http.Request) {
	e := g.get(w, r)
	if e == nil {
		return
	}
	var req RegisterRequest
	if !readJSON(w, r, &req) {
		return
	}
	resp, err := e.d.Register(req.Name, req.Slots)
	if err != nil {
		// Distinguish the terminal rejection (run already over) from
		// transient server trouble so agents can exit with a typed error
		// instead of retrying forever.
		if errors.Is(err, ErrRunOver) {
			writeError(w, http.StatusConflict, "run_over", "%v", err)
		} else {
			writeError(w, http.StatusInternalServerError, "internal", "%v", err)
		}
		return
	}
	writeJSON(w, http.StatusCreated, resp)
}

func (g *Registry) handlePoll(w http.ResponseWriter, r *http.Request) {
	e := g.get(w, r)
	if e == nil {
		return
	}
	var req PollRequest
	if !readJSON(w, r, &req) {
		return
	}
	resp, err := e.d.Poll(r.Context(), r.PathValue("agent"), wallMs(req.WaitMs))
	if err != nil {
		g.writeAgentError(w, err)
		return
	}
	writeJSON(w, http.StatusOK, resp)
}

func (g *Registry) leaseID(w http.ResponseWriter, r *http.Request) (int64, bool) {
	v, err := strconv.ParseInt(r.PathValue("lease"), 10, 64)
	if err != nil {
		writeError(w, http.StatusBadRequest, "bad_request", "invalid lease id %q", r.PathValue("lease"))
		return 0, false
	}
	return v, true
}

func (g *Registry) handleTransfer(w http.ResponseWriter, r *http.Request) {
	e := g.get(w, r)
	if e == nil {
		return
	}
	id, ok := g.leaseID(w, r)
	if !ok {
		return
	}
	var rep TransferReport
	if !readJSON(w, r, &rep) {
		return
	}
	ack, err := e.d.ReportTransfer(r.PathValue("agent"), id, rep)
	if err != nil {
		g.writeAgentError(w, err)
		return
	}
	writeJSON(w, http.StatusOK, ack)
}

func (g *Registry) handleComplete(w http.ResponseWriter, r *http.Request) {
	e := g.get(w, r)
	if e == nil {
		return
	}
	id, ok := g.leaseID(w, r)
	if !ok {
		return
	}
	var rep CompleteReport
	if !readJSON(w, r, &rep) {
		return
	}
	ack, err := e.d.Complete(r.PathValue("agent"), id, rep)
	if err != nil {
		g.writeAgentError(w, err)
		return
	}
	writeJSON(w, http.StatusOK, ack)
}

func (g *Registry) writeAgentError(w http.ResponseWriter, err error) {
	switch {
	case errors.Is(err, ErrUnknownAgent):
		writeError(w, http.StatusNotFound, "unknown_agent", "%v", err)
	case errors.Is(err, context.Canceled), errors.Is(err, context.DeadlineExceeded):
		writeError(w, http.StatusRequestTimeout, "canceled", "%v", err)
	default:
		writeError(w, http.StatusInternalServerError, "internal", "%v", err)
	}
}
