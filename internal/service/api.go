package service

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"strconv"
	"sync"
	"time"

	"repro/internal/baseline"
	"repro/internal/core"
	"repro/internal/dag"
	"repro/internal/dagio"
	"repro/internal/monitor"
	"repro/internal/predict"
	"repro/internal/sim"
	"repro/internal/wal"
	"repro/internal/workloads"
)

// maxBodyBytes caps request bodies; a 4005-task snapshot is well under 2 MB,
// so 16 MB leaves generous head-room without letting a client exhaust RAM.
const maxBodyBytes = 16 << 20

// ControllerSpec is the JSON-facing controller configuration. The zero value
// reproduces the paper's settings for every policy.
type ControllerSpec struct {
	// RestartFrac, MinPool, UtilizationTarget mirror core.Config.
	RestartFrac       float64 `json:"restart_frac,omitempty"`
	MinPool           int     `json:"min_pool,omitempty"`
	UtilizationTarget float64 `json:"utilization_target,omitempty"`

	// LearningRate, EpochsPerUpdate, SizeTolerance, TransferWindow mirror
	// predict.Config.
	LearningRate    float64 `json:"learning_rate,omitempty"`
	EpochsPerUpdate int     `json:"epochs_per_update,omitempty"`
	SizeTolerance   float64 `json:"size_tolerance,omitempty"`
	TransferWindow  int     `json:"transfer_window,omitempty"`

	// Deadline and Slack configure the "deadline" policy only.
	Deadline float64 `json:"deadline_s,omitempty"`
	Slack    float64 `json:"slack,omitempty"`
}

func (cs *ControllerSpec) coreConfig() core.Config {
	if cs == nil {
		return core.Config{}
	}
	return core.Config{
		Predictor: predict.Config{
			LearningRate:    cs.LearningRate,
			EpochsPerUpdate: cs.EpochsPerUpdate,
			SizeTolerance:   cs.SizeTolerance,
			TransferWindow:  cs.TransferWindow,
		},
		RestartFrac:       cs.RestartFrac,
		MinPool:           cs.MinPool,
		UtilizationTarget: cs.UtilizationTarget,
	}
}

// Policies accepted by NewPolicyController, in documentation order.
func PolicyNames() []string {
	return []string{"wire", "deadline", "full-site", "pure-reactive", "reactive-conserving"}
}

// NewPolicyController builds a fresh controller for a policy name. It is the
// single policy registry shared by the daemon, wire-sim, and the scenario runner.
func NewPolicyController(policy string, spec *ControllerSpec) (sim.Controller, error) {
	switch policy {
	case "", "wire":
		return core.New(spec.coreConfig()), nil
	case "deadline":
		if spec == nil || spec.Deadline <= 0 {
			return nil, fmt.Errorf("policy deadline requires controller.deadline_s > 0")
		}
		return core.NewDeadline(core.DeadlineConfig{
			Deadline: spec.Deadline,
			Config:   spec.coreConfig(),
			Slack:    spec.Slack,
		}), nil
	case "full-site":
		return baseline.Static{}, nil
	case "pure-reactive":
		return baseline.PureReactive{}, nil
	case "reactive-conserving":
		return &baseline.ReactiveConserving{}, nil
	default:
		return nil, fmt.Errorf("unknown policy %q (known: %v)", policy, PolicyNames())
	}
}

// CreateSessionRequest is the POST /v1/sessions body. Exactly one workflow
// source must be set: an inline dagio document or a catalogue key.
type CreateSessionRequest struct {
	// Workflow is an inline workflow document in the dagio format.
	Workflow *dagio.Document `json:"workflow,omitempty"`
	// WorkflowKey names a Table I catalogue run ("genome-s", ...);
	// WorkflowSeed drives its generator (default 1).
	WorkflowKey  string `json:"workflow_key,omitempty"`
	WorkflowSeed int64  `json:"workflow_seed,omitempty"`

	// Policy selects the controller (default "wire").
	Policy string `json:"policy,omitempty"`
	// Controller tunes it; nil reproduces the paper's settings.
	Controller *ControllerSpec `json:"controller,omitempty"`

	// Tenant tags the session with a tenant identity. Tenant-tagged creates
	// pass the tenant registry's admission gate and are answered 429
	// tenant_throttled while the tenant's budget or session cap is
	// exhausted.
	Tenant string `json:"tenant,omitempty"`
	// DeadlineS is a soft completion deadline on the session's run clock
	// (seconds, 0 = none), metered into the tenancy deadline-miss counter.
	DeadlineS float64 `json:"deadline_s,omitempty"`
}

// SessionInfo describes one session in API responses.
type SessionInfo struct {
	ID        string    `json:"id"`
	Policy    string    `json:"policy"`
	Workflow  string    `json:"workflow"`
	Tenant    string    `json:"tenant,omitempty"`
	Tasks     int       `json:"tasks"`
	Stages    int       `json:"stages"`
	CreatedAt time.Time `json:"created_at"`
}

// PlanResponse is the POST /v1/sessions/{id}/plan response: the decision for
// the next interval plus the controller's current pre-start predictions for
// the tasks that have not started yet (the Figure 1 wavefront), one record per
// distinct estimate (PredictionGroup).
// Predictions are only present for the wire policy: it alone annotates tasks.
type PlanResponse struct {
	SessionID string `json:"session_id"`
	Iteration int64  `json:"iteration"`
	// Seq is the plan interval this decision answers (see PlanSeqHeader);
	// a retried request with the same seq receives this response verbatim.
	Seq      int64        `json:"seq"`
	Decision sim.Decision `json:"decision"`
	// Degraded marks a decision produced by the session's
	// reactive-conserving fallback after the controller panicked.
	Degraded    bool              `json:"degraded,omitempty"`
	Predictions []PredictionGroup `json:"predictions,omitempty"`
}

// SessionStateResponse is the GET /v1/sessions/{id}/state response.
type SessionStateResponse struct {
	SessionInfo
	Plans int64 `json:"plans"`
	// IdleS is seconds since the last API touch.
	IdleS float64 `json:"idle_s"`
	// Controller is the WIRE run state (nil for baselines without one).
	Controller *core.StateDump `json:"controller,omitempty"`
}

// HealthResponse is the GET /healthz body.
type HealthResponse struct {
	Status   string  `json:"status"`
	Sessions int     `json:"sessions"`
	UptimeS  float64 `json:"uptime_s"`
}

// ErrorBody is the JSON body of every non-2xx response.
type ErrorBody struct {
	Error string `json:"error"`
	Code  string `json:"code"`
}

// stateDumper is satisfied by controllers exposing WIRE run state.
type stateDumper interface{ State() core.StateDump }

// wavefronter is satisfied by controllers that annotate pending tasks: what
// the last Plan predicted, in task-id order, valid until the next Plan.
type wavefronter interface{ Wavefront() []core.Prediction }

// bufPool recycles the scratch buffers of writeJSON, readJSON and the plan
// path (posted body, encoded response, framed WAL record). One shared pool
// rather than per-session buffers, so idle sessions pin nothing. Buffers that
// grew past maxPooledBuf (a one-off giant state dump) are dropped rather than
// pinned in the pool.
var bufPool = sync.Pool{New: func() any { return new(bytes.Buffer) }}

// maxPooledBuf is sized from the largest buffers the catalogue makes the plan
// path hold, measured on Genome-L (4005 tasks, 22 plans) by
// TestPlanRecordFramingMatchesEncoder: a snapshot posted in full — a session's
// first plan, or a resync — reaches 1.11 MB and so does the WAL record framed
// around it; the response, whose wavefront is grouped by estimate, stays under
// 25 KB. Delta bodies and their records are several times smaller, so it is
// the full-snapshot path that sets the ceiling. With reserve's eighth to spare
// those buffers stay under 1.25 MB; 2 MiB leaves room for workflows half as
// large again.
const maxPooledBuf = 2 << 20

func getBuf() *bytes.Buffer {
	buf := bufPool.Get().(*bytes.Buffer)
	buf.Reset()
	return buf
}

func putBuf(buf *bytes.Buffer) {
	if buf.Cap() <= maxPooledBuf {
		bufPool.Put(buf)
	}
}

// reserve makes an empty pooled buffer hold n bytes without growing. Where
// bytes.Buffer.Grow at least doubles a buffer it has to replace, reserve
// allocates n and an eighth: the pool hands one buffer to bodies of very
// different sizes (a delta, then some session's full snapshot), and a
// megabyte buffer doubled is over maxPooledBuf, so it would be dropped and
// reallocated on every such plan.
func reserve(buf *bytes.Buffer, n int) {
	if buf.Cap() < n {
		*buf = *bytes.NewBuffer(make([]byte, 0, n+n/8))
	}
}

// writeJSON encodes v into a pooled buffer before touching the response, so
// an encoding failure is reported as a proper 500 instead of a truncated
// 200 with a committed status line.
func (s *Server) writeJSON(w http.ResponseWriter, status int, v any) {
	buf := getBuf()
	defer putBuf(buf)
	if err := json.NewEncoder(buf).Encode(v); err != nil {
		// No recursion risk: ErrorBody is two plain strings and cannot
		// fail to encode.
		s.metrics.EncodeError()
		s.writeError(w, http.StatusInternalServerError, "encode_failed", "encoding response: %v", err)
		return
	}
	writeBody(w, status, buf.Bytes())
}

// writeBody sends an already-encoded JSON body.
func writeBody(w http.ResponseWriter, status int, body []byte) {
	w.Header().Set("Content-Type", "application/json")
	w.Header().Set("Content-Length", strconv.Itoa(len(body)))
	w.WriteHeader(status)
	_, _ = w.Write(body)
}

func (s *Server) writeError(w http.ResponseWriter, status int, code, format string, args ...any) {
	s.writeJSON(w, status, ErrorBody{Error: fmt.Sprintf(format, args...), Code: code})
}

func (s *Server) readJSON(w http.ResponseWriter, r *http.Request, v any) bool {
	r.Body = http.MaxBytesReader(w, r.Body, maxBodyBytes)
	buf := getBuf()
	defer putBuf(buf)
	if _, err := buf.ReadFrom(r.Body); err != nil {
		s.writeError(w, http.StatusBadRequest, "bad_request", "invalid JSON body: %v", err)
		return false
	}
	if err := json.Unmarshal(buf.Bytes(), v); err != nil {
		s.writeError(w, http.StatusBadRequest, "bad_request", "invalid JSON body: %v", err)
		return false
	}
	return true
}

// readBody reads a plan request's body into buf, a pooled buffer the caller
// owns. Snapshots are by far the largest and most frequent bodies the daemon
// sees, so the buffer is reserved from Content-Length instead of grown by
// doubling.
func (s *Server) readBody(w http.ResponseWriter, r *http.Request, buf *bytes.Buffer) bool {
	r.Body = http.MaxBytesReader(w, r.Body, maxBodyBytes)
	if n := r.ContentLength; n > 0 && n <= maxBodyBytes {
		// ReadFrom wants bytes.MinRead to spare to see EOF.
		reserve(buf, int(n)+bytes.MinRead)
	}
	if _, err := buf.ReadFrom(r.Body); err != nil {
		s.writeError(w, http.StatusBadRequest, "bad_request", "invalid JSON body: %v", err)
		return false
	}
	return true
}

func (s *Server) sessionInfo(sess *Session) SessionInfo {
	return SessionInfo{
		ID:        sess.ID,
		Policy:    sess.Policy,
		Workflow:  sess.Workflow.Name,
		Tenant:    sess.TenantTag(),
		Tasks:     sess.Workflow.NumTasks(),
		Stages:    sess.Workflow.NumStages(),
		CreatedAt: sess.CreatedAt(),
	}
}

func (s *Server) handleCreateSession(w http.ResponseWriter, r *http.Request) {
	var assigned string
	if s.cfg.ShardMode {
		// The cluster router consistent-hashes sessions onto shards, so it
		// draws the ID itself and forwards it here. An assigned-ID create is
		// idempotent: the router only ever mints an ID once, so a duplicate
		// is a retry of a create whose response was lost.
		if h := r.Header.Get(SessionIDHeader); h != "" {
			if !ValidSessionID(h) {
				s.writeError(w, http.StatusBadRequest, "bad_request",
					"invalid %s header %q", SessionIDHeader, h)
				return
			}
			assigned = h
			if sess, err := s.store.Get(assigned); err == nil {
				s.writeJSON(w, http.StatusOK, s.sessionInfo(sess))
				return
			}
		}
	}
	var req CreateSessionRequest
	if !s.readJSON(w, r, &req) {
		return
	}
	wf, seed, err := workloads.Resolve(req.Workflow, req.WorkflowKey, req.WorkflowSeed)
	if err != nil {
		s.writeError(w, http.StatusBadRequest, "bad_request", "workflow: %v", err)
		return
	}
	policy := req.Policy
	if policy == "" {
		policy = "wire"
	}
	ctrl, err := NewPolicyController(policy, req.Controller)
	if err != nil {
		s.writeError(w, http.StatusBadRequest, "bad_request", "%v", err)
		return
	}
	if req.Tenant != "" && !ValidTenantName(req.Tenant) {
		s.writeError(w, http.StatusBadRequest, "bad_request", "invalid tenant %q", req.Tenant)
		return
	}
	if req.DeadlineS < 0 {
		s.writeError(w, http.StatusBadRequest, "bad_request", "deadline_s must be non-negative")
		return
	}
	// The tenancy admission gate runs after validation (refused nonsense is
	// not an arrival) and before the store insert; every error path below
	// must release the slot it took.
	if req.Tenant != "" && !s.tenants.Admit(req.Tenant) {
		w.Header().Set("Retry-After", "1")
		s.writeError(w, http.StatusTooManyRequests, CodeTenantThrottled,
			"tenant %q throttled: budget or session cap exhausted; retry later", req.Tenant)
		return
	}
	releaseTenant := func() {
		if req.Tenant != "" {
			s.tenants.Release(req.Tenant)
		}
	}
	var sess *Session
	if assigned != "" {
		sess, err = s.store.CreateWithID(assigned, policy, wf, ctrl)
		if errors.Is(err, ErrDuplicateID) {
			// Lost the race against a concurrent retry of the same create.
			if dup, derr := s.store.Get(assigned); derr == nil {
				releaseTenant()
				s.writeJSON(w, http.StatusOK, s.sessionInfo(dup))
				return
			}
		}
	} else {
		sess, err = s.store.Create(policy, wf, ctrl)
	}
	if errors.Is(err, ErrMaxSessions) {
		releaseTenant()
		s.metrics.SessionRejected()
		s.writeError(w, http.StatusTooManyRequests, "max_sessions",
			"session limit %d reached; delete a session or retry later", s.cfg.maxSessions)
		return
	}
	if err != nil {
		releaseTenant()
		s.writeError(w, http.StatusInternalServerError, "internal", "%v", err)
		return
	}
	if req.Tenant != "" || req.DeadlineS > 0 {
		sess.mu.Lock()
		sess.Tenant = req.Tenant
		sess.DeadlineS = req.DeadlineS
		sess.mu.Unlock()
	}
	s.metrics.SessionCreated()
	s.openSessionJournal(sess, &req, seed)
	s.writeJSON(w, http.StatusCreated, s.sessionInfo(sess))
}

func (s *Server) getSession(w http.ResponseWriter, r *http.Request) *Session {
	id := r.PathValue("id")
	sess, err := s.store.Get(id)
	if errors.Is(err, errFenced) {
		// Claimed here, but a newer claim took the WAL while it replayed.
		w.Header().Set("Retry-After", "1")
		s.writeError(w, http.StatusServiceUnavailable, CodeSessionFenced,
			"session %s was adopted by another shard; retry", id)
		return nil
	}
	if err != nil {
		s.writeError(w, http.StatusNotFound, "not_found", "session %q not found", id)
		return nil
	}
	return sess
}

// validateSnapshot checks the parts of a posted snapshot the controllers
// index into; everything else is the client's modelling choice. A full body
// carries one record per task, indexed by id; a delta's ids are checked
// against its base by monitor.Snapshot.ApplyDelta.
func validateSnapshot(snap *monitor.Snapshot, wf *dag.Workflow) error {
	if !snap.Delta && len(snap.Tasks) != wf.NumTasks() {
		return fmt.Errorf("snapshot has %d task records, workflow has %d tasks", len(snap.Tasks), wf.NumTasks())
	}
	for i := range snap.Tasks {
		if !snap.Delta && int(snap.Tasks[i].ID) != i {
			return fmt.Errorf("task record %d has id %d; records must be indexed by task id", i, snap.Tasks[i].ID)
		}
		if st := int(snap.Tasks[i].Stage); st < 0 || st >= wf.NumStages() {
			return fmt.Errorf("task record %d references missing stage %d", i, st)
		}
	}
	if snap.Interval <= 0 {
		return fmt.Errorf("interval_s must be positive")
	}
	if snap.ChargingUnit <= 0 {
		return fmt.Errorf("charging_unit_s must be positive")
	}
	if snap.SlotsPerInstance <= 0 {
		return fmt.Errorf("slots_per_instance must be positive")
	}
	return nil
}

func (s *Server) handlePlan(w http.ResponseWriter, r *http.Request) {
	sess := s.getSession(w, r)
	if sess == nil {
		return
	}
	var seq int64
	if h := r.Header.Get(PlanSeqHeader); h != "" {
		v, err := strconv.ParseInt(h, 10, 64)
		if err != nil || v <= 0 {
			s.writeError(w, http.StatusBadRequest, "bad_request",
				"invalid %s header %q: want a positive integer", PlanSeqHeader, h)
			return
		}
		seq = v
	}
	raw := getBuf()
	defer putBuf(raw)
	if !s.readBody(w, r, raw) {
		return
	}
	// Everything from here to the journal append runs under sess.mu: plan
	// requests for one session are serial anyway (the controller is), and
	// nothing downstream retains the snapshot past the request — planStep
	// reads it, the journal frames what was posted before unlock.
	sess.mu.Lock()
	if sess.gone {
		// The session was exported to (or fenced off by) another shard after
		// this handler picked it up. Answer retryable; the router routes the
		// retry to the new owner.
		sess.mu.Unlock()
		w.Header().Set("Retry-After", "1")
		s.writeError(w, http.StatusServiceUnavailable, CodeSessionFenced,
			"session %s moved to another shard; retry", sess.ID)
		return
	}
	if seq > 0 {
		// Exactly-once planning, decided before the body is even decoded: a
		// retry of the last interval is answered from the cache without
		// advancing the controller or touching the materialised snapshot;
		// anything else out of order is a protocol violation the client must
		// not paper over by replanning.
		if seq == sess.lastSeq && len(sess.lastBody) > 0 {
			// The next plan rewrites lastBody in place, so the bytes are
			// copied out before the lock goes.
			cached := getBuf()
			defer putBuf(cached)
			cached.Write(sess.lastBody)
			sess.mu.Unlock()
			s.metrics.PlanRetried()
			writeBody(w, http.StatusOK, cached.Bytes())
			return
		}
		if seq != sess.lastSeq+1 {
			last := sess.lastSeq
			sess.mu.Unlock()
			s.writeError(w, http.StatusConflict, "seq_conflict",
				"plan seq %d out of order (last served %d)", seq, last)
			return
		}
	}
	// Decode into the small scratch; the materialised snapshot only changes
	// once the body has passed every check below.
	in := sess.resetBodyScratch()
	if err := monitor.UnmarshalSnapshot(raw.Bytes(), in); err != nil {
		sess.mu.Unlock()
		s.writeError(w, http.StatusBadRequest, "bad_request", "invalid JSON body: %v", err)
		return
	}
	if in.Workflow != nil && in.Workflow.NumTasks() != sess.Workflow.NumTasks() {
		n := in.Workflow.NumTasks()
		sess.mu.Unlock()
		s.writeError(w, http.StatusBadRequest, "bad_request",
			"snapshot workflow has %d tasks, session workflow has %d",
			n, sess.Workflow.NumTasks())
		return
	}
	if in.Delta && (seq == 0 || !sess.baseOK) {
		// A delta is only meaningful against the snapshot of seq-1, which an
		// unsequenced request cannot name and a session that has not planned
		// (or whose last body failed to plan) does not hold.
		sess.mu.Unlock()
		s.writeError(w, http.StatusConflict, CodeBaseMismatch,
			"delta snapshot has no base here; post the interval as a full snapshot")
		return
	}
	if err := sess.materialise(in); err != nil {
		sess.mu.Unlock()
		s.writeError(w, http.StatusBadRequest, "bad_request", "snapshot: %v", err)
		return
	}
	snap := &sess.snapScratch
	dec, degraded, err := planStep(sess, snap)
	if err != nil {
		// snapScratch now holds a snapshot lastSeq does not name.
		sess.baseOK = false
		sess.mu.Unlock()
		s.writeError(w, http.StatusUnprocessableEntity, "plan_failed", "%v", err)
		return
	}
	assigned := sess.lastSeq + 1
	resp := &PlanResponse{
		SessionID: sess.ID,
		Iteration: sess.plans.Add(1),
		Seq:       assigned,
		Decision:  dec,
		Degraded:  degraded,
	}
	if wc, ok := sess.ctrl.(wavefronter); ok && !degraded {
		resp.Predictions = sess.grouper.fold(wc.Wavefront())
	}
	// Encode the response once, under sess.mu: the same bytes close the WAL
	// record, become the session's retry cache and, after unlock, are the HTTP
	// body. The groups live in session scratch the next plan reuses, so the
	// struct does not outlive this encode.
	body := getBuf()
	defer putBuf(body)
	reserve(body, resp.encodedSizeHint())
	respJSON, encErr := resp.AppendJSON(body.AvailableBuffer())
	*body = *bytes.NewBuffer(respJSON)
	// Journal before releasing the response: any decision a client can
	// have observed must be re-derivable after a crash. A response that
	// does not encode reaches neither the journal nor the client. The record
	// holds the body as posted: the parser accepted it, so it is JSON.
	jerr := encErr
	if encErr == nil {
		jerr = sess.wal.appendPlan(assigned, raw.Bytes(), respJSON)
	}
	switch {
	case jerr == nil:
	case errors.Is(jerr, errFenced):
		// A peer adopted this session at a higher epoch while we were
		// planning: this process is stale for it. The decision MUST be
		// withheld — the adopter's WAL copy cannot contain it, so
		// releasing it would fork the session's decision stream. Stop
		// serving the session; the client's retry lands on the adopter.
		wal := sess.wal
		sess.wal = nil
		sess.gone = true
		tenant := sess.Tenant
		sess.mu.Unlock()
		wal.close(false)
		s.store.drop(sess)
		if tenant != "" {
			s.tenants.Release(tenant)
		}
		s.metrics.SessionFenced()
		s.cfg.Logf("wire-serve: session %s fenced by a newer adoption; withholding plan seq %d", sess.ID, assigned)
		w.Header().Set("Retry-After", "1")
		s.writeError(w, http.StatusServiceUnavailable, CodeSessionFenced,
			"session %s was adopted by another shard; retry", sess.ID)
		return
	case errors.Is(jerr, wal.ErrBroken):
		// The file can no longer be kept a run of whole records; appending
		// on would strand every later record behind the damage. The session
		// degrades to memory-only, like one whose journal never opened.
		s.cfg.Logf("wire-serve: journal detached from session %s at plan seq %d: %v", sess.ID, assigned, jerr)
		sess.wal.close(false)
		sess.wal = nil
	default:
		s.cfg.Logf("wire-serve: journal append failed for session %s at plan seq %d: %v", sess.ID, assigned, jerr)
	}
	// Trailing newline matches json.Encoder's framing. A response that did
	// not encode leaves the cache empty: there is nothing to retry it with.
	sess.lastBody = sess.lastBody[:0]
	if encErr == nil {
		body.WriteByte('\n')
		sess.lastBody = append(sess.lastBody, body.Bytes()...)
	}
	sess.lastSeq, sess.baseOK = assigned, true
	ten, tenOK := observeTenancy(sess, snap)
	sess.mu.Unlock()
	if tenOK {
		s.applyTenancy(ten)
	}
	if degraded {
		s.metrics.PlanDegraded()
	}
	if encErr != nil {
		s.metrics.EncodeError()
		s.writeError(w, http.StatusInternalServerError, "encode_failed", "encoding response: %v", encErr)
		return
	}
	writeBody(w, http.StatusOK, body.Bytes())
}

// planStep advances the session's controller by one interval, degrading to
// the session's reactive-conserving fallback when the controller panics — a
// client feeding inconsistent snapshots gets conservative decisions, not
// failed intervals (and certainly not a crashed daemon). The caller must
// hold sess.mu.
func planStep(sess *Session, snap *monitor.Snapshot) (dec sim.Decision, degraded bool, err error) {
	plan := func(ctrl sim.Controller) (d sim.Decision, panicked any) {
		defer func() { panicked = recover() }()
		return ctrl.Plan(snap), nil
	}
	dec, panicked := plan(sess.ctrl)
	if panicked == nil {
		return dec, false, nil
	}
	if sess.fallback == nil {
		sess.fallback = &baseline.ReactiveConserving{}
	}
	dec, fallbackPanic := plan(sess.fallback)
	if fallbackPanic != nil {
		return sim.Decision{}, true,
			fmt.Errorf("controller rejected snapshot: %v (fallback also failed: %v)", panicked, fallbackPanic)
	}
	return dec, true, nil
}

func (s *Server) handleSessionState(w http.ResponseWriter, r *http.Request) {
	sess := s.getSession(w, r)
	if sess == nil {
		return
	}
	resp := SessionStateResponse{
		SessionInfo: s.sessionInfo(sess),
		Plans:       sess.Plans(),
		IdleS:       s.now().Sub(sess.LastUsed()).Seconds(),
	}
	_ = sess.Controller(func(ctrl sim.Controller) error {
		if sd, ok := ctrl.(stateDumper); ok {
			dump := sd.State()
			resp.Controller = &dump
		}
		return nil
	})
	s.writeJSON(w, http.StatusOK, resp)
}

func (s *Server) handleDeleteSession(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	sess, err := s.store.Get(id)
	if err != nil {
		s.writeError(w, http.StatusNotFound, "not_found", "session %q not found", id)
		return
	}
	if err := s.store.Delete(id); err != nil {
		// Lost a race against a concurrent delete/evict; that path released
		// the tenant slot.
		s.writeError(w, http.StatusNotFound, "not_found", "session %q not found", id)
		return
	}
	if tenant := sess.TenantTag(); tenant != "" {
		s.tenants.Release(tenant)
	}
	s.metrics.SessionDeleted()
	w.WriteHeader(http.StatusNoContent)
}

func (s *Server) handleHealthz(w http.ResponseWriter, _ *http.Request) {
	s.writeJSON(w, http.StatusOK, HealthResponse{
		Status:   "ok",
		Sessions: s.store.Len(),
		UptimeS:  s.now().Sub(s.start).Seconds(),
	})
}

// handleReadyz is the readiness probe: unlike /healthz (pure liveness — the
// process answers), it returns 503 while the shard should not take traffic:
// draining on shutdown. Adopted sessions still replaying do not count: a
// request for one waits for its replay, so the shard takes traffic
// throughout; /metrics counts them (sessions_awaiting_replay).
func (s *Server) handleReadyz(w http.ResponseWriter, _ *http.Request) {
	status, code := "ready", http.StatusOK
	if s.draining.Load() {
		status, code = "draining", http.StatusServiceUnavailable
	}
	s.writeJSON(w, code, HealthResponse{
		Status:   status,
		Sessions: s.store.Len(),
		UptimeS:  s.now().Sub(s.start).Seconds(),
	})
}

// ProbeRequest is the POST /v1/admin/probe body: a relayed reachability
// check. When the router loses contact with a shard it asks a surviving peer
// to try before fencing — a shard reachable from a peer but not the router
// is partitioned, not dead, and must not be failed over (its journals are
// live and a concurrent adopter would split-brain).
type ProbeRequest struct {
	// URL is the endpoint to GET on the router's behalf.
	URL string `json:"url"`
}

// ProbeResponse reports what the relay saw.
type ProbeResponse struct {
	// Reachable is true when the target answered HTTP at all — any status
	// counts; a shard answering 503 is alive, just not ready.
	Reachable bool `json:"reachable"`
	// Status is the HTTP status the target returned (0 when unreachable).
	Status int `json:"status,omitempty"`
	// Error is the transport error when unreachable.
	Error string `json:"error,omitempty"`
}

func (s *Server) handleProbe(w http.ResponseWriter, r *http.Request) {
	var req ProbeRequest
	if !s.readJSON(w, r, &req) {
		return
	}
	if req.URL == "" {
		s.writeError(w, http.StatusBadRequest, "bad_request", "url is required")
		return
	}
	ctx, cancel := context.WithTimeout(r.Context(), 2*time.Second)
	defer cancel()
	preq, err := http.NewRequestWithContext(ctx, http.MethodGet, req.URL, nil)
	if err != nil {
		s.writeError(w, http.StatusBadRequest, "bad_request", "probe url: %v", err)
		return
	}
	resp, err := s.cfg.ProbeClient.Do(preq)
	if err != nil {
		s.writeJSON(w, http.StatusOK, ProbeResponse{Error: err.Error()})
		return
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	s.writeJSON(w, http.StatusOK, ProbeResponse{Reachable: true, Status: resp.StatusCode})
}

func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	var dump MetricsDump
	if r.URL.Query().Get("raw") == "1" {
		dump = s.metrics.DumpRaw(s.now(), s.store.Len())
	} else {
		dump = s.metrics.Dump(s.now(), s.store.Len())
	}
	dump.FaultTolerance.SessionsAwaitingReplay = s.replays.awaiting()
	dump.Tenancy = s.tenants.Counters(dump.UptimeS)
	lm := s.live.Metrics()
	dump.Live = &lm
	s.writeJSON(w, http.StatusOK, dump)
}

// AdoptRequest is the POST /v1/admin/adopt body: the cluster handoff. The
// router sends either whole journal directories (death failover: everything
// a dead shard owned) or individual WAL paths (planned migration: the files
// a donor exported); this shard claims each session via the fenced-copy
// protocol in handoff.go and resurrects it by WAL replay into its own
// journal directory, so a subsequent handoff can move it again.
type AdoptRequest struct {
	// JournalDirs are whole directories to claim (death failover).
	JournalDirs []string `json:"journal_dirs,omitempty"`
	// JournalFiles are individual session WALs to claim (drain/join
	// rebalancing, from the donor's export response).
	JournalFiles []string `json:"journal_files,omitempty"`
	// From names the shard the sessions come from (log + fence context).
	From string `json:"from,omitempty"`
	// Epoch is the router-issued fencing epoch of this handoff, required
	// positive; one below the highest this shard has seen is rejected with
	// 409 stale_epoch.
	Epoch int64 `json:"epoch,omitempty"`
}

// AdoptResponse reports an adoption's outcome.
type AdoptResponse struct {
	// Sessions is how many of the offered sessions this shard now hosts
	// (including ones an earlier retried attempt already adopted).
	Sessions int `json:"sessions"`
}

func (s *Server) handleAdopt(w http.ResponseWriter, r *http.Request) {
	var req AdoptRequest
	if !s.readJSON(w, r, &req) {
		return
	}
	if len(req.JournalDirs) == 0 && len(req.JournalFiles) == 0 {
		s.writeError(w, http.StatusBadRequest, "bad_request", "journal_dirs or journal_files is required")
		return
	}
	if !s.advanceEpoch(w, "adopt", req.Epoch) {
		return
	}
	total, fresh := 0, 0
	for _, dir := range req.JournalDirs {
		n, f, err := s.AdoptJournalDir(dir, req.Epoch, req.From)
		if err != nil {
			s.writeError(w, http.StatusInternalServerError, "adopt_failed",
				"replaying %s: %v", dir, err)
			return
		}
		total += n
		fresh += f
	}
	if len(req.JournalFiles) > 0 {
		n, f := s.AdoptJournalFiles(req.JournalFiles, req.Epoch, req.From)
		total += n
		fresh += f
	}
	// total (what the router's handoff accounting wants) includes sessions a
	// retried adoption found already hosted; the adoption counter does not.
	s.metrics.SessionsAdopted(fresh)
	s.cfg.Logf("wire-serve: adopted %d session(s) from %s (%d dir(s), %d file(s), epoch %d)",
		total, req.From, len(req.JournalDirs), len(req.JournalFiles), req.Epoch)
	s.writeJSON(w, http.StatusOK, AdoptResponse{Sessions: total})
}

// ExportRequest is the POST /v1/admin/export body: the donor half of a
// planned migration. Each named session is detached from this shard — its
// in-flight plan, if any, finishes first — and its WAL path is returned for
// the new owner to adopt. Until the adopt lands, requests for the session
// answer 503 and the router holds them off.
type ExportRequest struct {
	// SessionIDs are the sessions to detach and hand over.
	SessionIDs []string `json:"session_ids"`
	// Epoch is the router-issued fencing epoch of this handoff (see
	// AdoptRequest.Epoch).
	Epoch int64 `json:"epoch,omitempty"`
	// To names the destination shard (log context only; per-session
	// destinations are the router's concern).
	To string `json:"to,omitempty"`
}

// ExportResponse reports which sessions were detached for migration.
type ExportResponse struct {
	// Sessions is how many sessions were exported.
	Sessions int `json:"sessions"`
	// JournalFiles are the WAL paths of the exported sessions, ready for an
	// AdoptRequest.JournalFiles handoff.
	JournalFiles []string `json:"journal_files,omitempty"`
	// Missing lists requested IDs this shard does not host (already
	// migrated, deleted, or never here) or cannot migrate by file — not an
	// error: the router reconciles them against its own routing state.
	Missing []string `json:"missing,omitempty"`
}

func (s *Server) handleExport(w http.ResponseWriter, r *http.Request) {
	var req ExportRequest
	if !s.readJSON(w, r, &req) {
		return
	}
	if len(req.SessionIDs) == 0 {
		s.writeError(w, http.StatusBadRequest, "bad_request", "session_ids is required")
		return
	}
	if !s.advanceEpoch(w, "export", req.Epoch) {
		return
	}
	var resp ExportResponse
	for _, id := range req.SessionIDs {
		path, ok := s.exportSession(id)
		if !ok {
			resp.Missing = append(resp.Missing, id)
			continue
		}
		resp.JournalFiles = append(resp.JournalFiles, path)
		resp.Sessions++
	}
	s.metrics.SessionsExported(resp.Sessions)
	s.cfg.Logf("wire-serve: exported %d session(s) to %s (%d missing, epoch %d)",
		resp.Sessions, req.To, len(resp.Missing), req.Epoch)
	s.writeJSON(w, http.StatusOK, &resp)
}

// SessionListResponse is the GET /v1/admin/sessions body: the IDs this shard
// hosts, for the router's rebalancing planner.
type SessionListResponse struct {
	Sessions []string `json:"sessions"`
}

func (s *Server) handleListSessions(w http.ResponseWriter, _ *http.Request) {
	s.writeJSON(w, http.StatusOK, SessionListResponse{Sessions: s.store.IDs()})
}
