package service

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"sync"
	"testing"

	"repro/internal/cloud"
	"repro/internal/core"
	"repro/internal/dag"
	"repro/internal/dagio"
	"repro/internal/dist"
	"repro/internal/monitor"
	"repro/internal/sim"
	"repro/internal/workloads"
)

func newTestServer(t *testing.T, cfg Config) (*Server, *Client) {
	t.Helper()
	srv := New(cfg)
	ts := httptest.NewServer(srv.Handler())
	t.Cleanup(ts.Close)
	return srv, NewClient(ts.URL)
}

func fanWorkflow() *dag.Workflow {
	b := dag.NewBuilder("fan")
	b.AddStage("prep")
	b.AddStage("fan")
	b.AddStage("merge")
	root := b.AddTask(0, "", 20, 2, 8)
	var fan []dag.TaskID
	for i := 0; i < 12; i++ {
		fan = append(fan, b.AddTask(1, "", 90, 5, 32, root))
	}
	b.AddTask(2, "", 40, 4, 64, fan...)
	wf, err := b.Build()
	if err != nil {
		panic(err)
	}
	return wf
}

var testCloud = cloud.Config{
	SlotsPerInstance: 2,
	LagTime:          60,
	ChargingUnit:     300,
	MaxInstances:     6,
}

// teeController drives an in-process controller and a remote session with
// the same snapshots, requiring byte-identical decision JSON at every MAPE
// iteration — the service acceptance criterion.
type teeController struct {
	t      *testing.T
	local  sim.Controller
	client *Client
	id     string
	iters  int
}

func (c *teeController) Name() string { return c.local.Name() }

func (c *teeController) Plan(snap *monitor.Snapshot) sim.Decision {
	c.iters++
	resp, err := c.client.Plan(context.Background(), c.id, 0, snap)
	if err != nil {
		c.t.Fatalf("iteration %d: remote plan: %v", c.iters, err)
	}
	local := c.local.Plan(snap)
	remoteJSON, err := json.Marshal(resp.Decision)
	if err != nil {
		c.t.Fatalf("iteration %d: marshal remote: %v", c.iters, err)
	}
	localJSON, err := json.Marshal(local)
	if err != nil {
		c.t.Fatalf("iteration %d: marshal local: %v", c.iters, err)
	}
	if !bytes.Equal(remoteJSON, localJSON) {
		c.t.Fatalf("iteration %d: decision over HTTP differs from in-process Plan:\nremote %s\nlocal  %s",
			c.iters, remoteJSON, localJSON)
	}
	return local
}

// TestRemoteDecisionsByteIdentical runs a noisy workflow to completion with
// every decision computed twice — in-process and over HTTP — and the JSON
// encodings compared byte for byte.
func TestRemoteDecisionsByteIdentical(t *testing.T) {
	_, client := newTestServer(t, Config{})
	wf := fanWorkflow()
	info, err := client.CreateSession(context.Background(), CreateSessionRequest{Workflow: dagio.Encode(wf)})
	if err != nil {
		t.Fatal(err)
	}
	tee := &teeController{t: t, local: core.New(core.Config{}), client: client, id: info.ID}
	res, err := sim.Run(wf, tee, sim.Config{
		Cloud:        testCloud,
		Seed:         11,
		Interference: dist.NewLognormalFromMean(1, 0.1),
	})
	if err != nil {
		t.Fatal(err)
	}
	if tee.iters == 0 {
		t.Fatal("no MAPE iterations executed")
	}
	if res.Decisions != tee.iters {
		t.Fatalf("decisions %d != iterations %d", res.Decisions, tee.iters)
	}
}

// TestSessionLifecycleHTTP exercises the full API surface of one session.
func TestSessionLifecycleHTTP(t *testing.T) {
	srv, client := newTestServer(t, Config{})
	wf := fanWorkflow()

	info, err := client.CreateSession(context.Background(), CreateSessionRequest{Workflow: dagio.Encode(wf)})
	if err != nil {
		t.Fatal(err)
	}
	if info.Policy != "wire" || info.Tasks != wf.NumTasks() || info.Stages != wf.NumStages() {
		t.Fatalf("session info mismatch: %+v", info)
	}

	// Drive the session with a remote controller through a real run.
	rc := &RemoteController{client: client, info: info}
	res, err := sim.Run(wf, rc, sim.Config{Cloud: testCloud, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	if err := rc.Err(); err != nil {
		t.Fatal(err)
	}
	if res.Decisions == 0 {
		t.Fatal("no decisions planned")
	}

	state, err := client.State(context.Background(), info.ID)
	if err != nil {
		t.Fatal(err)
	}
	if state.Plans != int64(res.Decisions) {
		t.Errorf("state plans = %d, want %d", state.Plans, res.Decisions)
	}
	if state.Controller == nil || state.Controller.Iterations != res.Decisions {
		t.Errorf("controller state missing or stale: %+v", state.Controller)
	}

	health, err := call[HealthResponse](context.Background(), client, http.MethodGet, "/healthz", nil)
	if err != nil {
		t.Fatal(err)
	}
	if health.Status != "ok" || health.Sessions != 1 {
		t.Errorf("health = %+v", health)
	}

	md, err := client.MetricsDump(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	plan := md.Endpoints["plan"]
	if plan.Count != int64(res.Decisions) {
		t.Errorf("metrics plan count = %d, want %d", plan.Count, res.Decisions)
	}
	if plan.LatencyMs == nil || plan.LatencyMs.Samples == 0 || plan.LatencyMs.P99 < plan.LatencyMs.P50 {
		t.Errorf("metrics plan latency missing or inconsistent: %+v", plan.LatencyMs)
	}
	if md.Sessions.Created != 1 || md.Sessions.Active != 1 {
		t.Errorf("metrics sessions = %+v", md.Sessions)
	}

	if err := client.DeleteSession(context.Background(), info.ID); err != nil {
		t.Fatal(err)
	}
	if err := client.DeleteSession(context.Background(), info.ID); err == nil {
		t.Error("second delete should 404")
	}
	if srv.Store().Len() != 0 {
		t.Error("store not empty after delete")
	}
}

// TestPlanRejectsBadSnapshots pins the 4xx behaviour of the plan endpoint.
func TestPlanRejectsBadSnapshots(t *testing.T) {
	_, client := newTestServer(t, Config{})
	wf := smallWorkflow(3)
	info, err := client.CreateSession(context.Background(), CreateSessionRequest{Workflow: dagio.Encode(wf)})
	if err != nil {
		t.Fatal(err)
	}

	check := func(name string, snap *monitor.Snapshot, wantStatus int) {
		t.Helper()
		_, err := client.Plan(context.Background(), info.ID, 0, snap)
		var apiErr *APIError
		if err == nil || !asAPIError(err, &apiErr) {
			t.Fatalf("%s: err = %v, want APIError", name, err)
		}
		if apiErr.StatusCode != wantStatus {
			t.Errorf("%s: status = %d (%s), want %d", name, apiErr.StatusCode, apiErr.Message, wantStatus)
		}
	}

	short := readySnapshot(wf)
	short.Tasks = short.Tasks[:2]
	check("wrong task count", short, http.StatusBadRequest)

	badIDs := readySnapshot(wf)
	badIDs.Tasks[1].ID = 2
	check("misindexed records", badIDs, http.StatusBadRequest)

	noInterval := readySnapshot(wf)
	noInterval.Interval = 0
	check("zero interval", noInterval, http.StatusBadRequest)

	noUnit := readySnapshot(wf)
	noUnit.ChargingUnit = 0
	check("zero charging unit", noUnit, http.StatusBadRequest)

	if _, err := client.Plan(context.Background(), "deadbeef", 0, readySnapshot(wf)); err == nil {
		t.Error("unknown session should 404")
	}
}

// TestCreateSessionValidation pins the 400 cases of session creation.
func TestCreateSessionValidation(t *testing.T) {
	_, client := newTestServer(t, Config{})
	cases := []struct {
		name string
		req  CreateSessionRequest
	}{
		{"no workflow", CreateSessionRequest{}},
		{"unknown key", CreateSessionRequest{WorkflowKey: "nope"}},
		{"unknown policy", CreateSessionRequest{WorkflowKey: "genome-s", Policy: "apollo"}},
		{"deadline without target", CreateSessionRequest{WorkflowKey: "genome-s", Policy: "deadline"}},
		{"both sources", CreateSessionRequest{
			Workflow: dagio.Encode(smallWorkflow(1)), WorkflowKey: "genome-s"}},
	}
	for _, tc := range cases {
		_, err := client.CreateSession(context.Background(), tc.req)
		var apiErr *APIError
		if err == nil || !asAPIError(err, &apiErr) || apiErr.StatusCode != http.StatusBadRequest {
			t.Errorf("%s: err = %v, want 400", tc.name, err)
		}
	}

	// Catalogue key and the deadline policy both work when well-formed.
	if _, err := client.CreateSession(context.Background(), CreateSessionRequest{WorkflowKey: "genome-s", WorkflowSeed: 5}); err != nil {
		t.Errorf("catalogue create: %v", err)
	}
	info, err := client.CreateSession(context.Background(), CreateSessionRequest{
		WorkflowKey: "genome-s",
		Policy:      "deadline",
		Controller:  &ControllerSpec{Deadline: 7200},
	})
	if err != nil {
		t.Fatalf("deadline create: %v", err)
	}
	// The deadline policy sizes the pool from remaining occupancy and never
	// annotates tasks: its responses carry no predictions and its state an
	// empty log. Only wire has a wavefront.
	run, _ := workloads.ByKey("genome-s")
	resp, err := client.Plan(context.Background(), info.ID, 1, readySnapshot(run.Generate(1)))
	if err != nil {
		t.Fatalf("deadline plan: %v", err)
	}
	if resp.Predictions != nil {
		t.Errorf("deadline plan carries %d prediction group(s), want none", len(resp.Predictions))
	}
	state, err := client.State(context.Background(), info.ID)
	if err != nil {
		t.Fatalf("deadline state: %v", err)
	}
	if state.Controller == nil || len(state.Controller.Predictions) != 0 {
		t.Errorf("deadline state: controller %+v, want a dump with an empty prediction log", state.Controller)
	}
}

// TestConcurrentSessionsHTTP runs 32 goroutines through the whole HTTP
// lifecycle at once; with -race this is the daemon's concurrency
// certificate.
func TestConcurrentSessionsHTTP(t *testing.T) {
	srv, client := newTestServer(t, Config{})
	const goroutines = 32

	var wg sync.WaitGroup
	errs := make(chan error, goroutines)
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			wf := smallWorkflow(4 + g%3)
			info, err := client.CreateSession(context.Background(), CreateSessionRequest{Workflow: dagio.Encode(wf)})
			if err != nil {
				errs <- err
				return
			}
			snap := readySnapshot(wf)
			for i := 0; i < 10; i++ {
				resp, err := client.Plan(context.Background(), info.ID, 0, snap)
				if err != nil {
					errs <- fmt.Errorf("goroutine %d plan %d: %w", g, i, err)
					return
				}
				if resp.SessionID != info.ID {
					errs <- fmt.Errorf("goroutine %d: response routed to %s, want %s", g, resp.SessionID, info.ID)
					return
				}
				if resp.Iteration != int64(i+1) {
					errs <- fmt.Errorf("goroutine %d: iteration %d, want %d", g, resp.Iteration, i+1)
					return
				}
			}
			if _, err := client.State(context.Background(), info.ID); err != nil {
				errs <- err
				return
			}
			if err := client.DeleteSession(context.Background(), info.ID); err != nil {
				errs <- err
				return
			}
		}(g)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	if n := srv.Store().Len(); n != 0 {
		t.Fatalf("%d sessions left after concurrent lifecycle", n)
	}
}

func asAPIError(err error, target **APIError) bool {
	e, ok := err.(*APIError)
	if ok {
		*target = e
	}
	return ok
}

// panicController blows up on its first Plan call, then behaves.
type panicController struct{ calls int }

func (p *panicController) Name() string { return "panicky" }

func (p *panicController) Plan(*monitor.Snapshot) sim.Decision {
	p.calls++
	if p.calls == 1 {
		panic("synthetic predictor crash")
	}
	return sim.Decision{}
}

// TestPlanPanicsDegrade installs a controller that panics on its first
// snapshot and requires the daemon to degrade to the reactive-conserving
// fallback — a flagged 200, not a 422 — and stay healthy: one predictor
// crash must cost at most one interval of optimality, never the session.
func TestPlanPanicsDegrade(t *testing.T) {
	srv, client := newTestServer(t, Config{})
	wf := smallWorkflow(3)
	sess, err := srv.Store().Create("wire", wf, &panicController{})
	if err != nil {
		t.Fatal(err)
	}

	resp, err := client.Plan(context.Background(), sess.ID, 0, readySnapshot(wf))
	if err != nil {
		t.Fatalf("plan during controller panic: %v", err)
	}
	if !resp.Degraded {
		t.Fatal("response not flagged degraded after controller panic")
	}
	// The controller recovers on its second call, so the session resumes
	// undegraded planning.
	resp, err = client.Plan(context.Background(), sess.ID, 0, readySnapshot(wf))
	if err != nil {
		t.Fatalf("session unusable after degraded plan: %v", err)
	}
	if resp.Degraded {
		t.Error("recovered controller still flagged degraded")
	}
	if _, err := call[HealthResponse](context.Background(), client, http.MethodGet, "/healthz", nil); err != nil {
		t.Fatalf("daemon unhealthy after degraded plan: %v", err)
	}
	md := srv.Metrics().Dump(srv.now(), srv.Store().Len())
	if md.FaultTolerance.DegradedPlansTotal != 1 {
		t.Errorf("degraded_plans_total = %d, want 1", md.FaultTolerance.DegradedPlansTotal)
	}
}

// TestReadyzLifecycle pins the liveness/readiness split: /healthz answers
// 200 for as long as the process lives, while /readyz flips to 503 the
// moment the server starts draining — that flip is what steers the router's
// probes away before shutdown tears connections down.
func TestReadyzLifecycle(t *testing.T) {
	srv, client := newTestServer(t, Config{})
	base := client.BaseURL()

	for _, ep := range []string{"/healthz", "/readyz"} {
		resp, err := http.Get(base + ep)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("%s = %d while idle, want 200", ep, resp.StatusCode)
		}
	}

	srv.draining.Store(true)
	resp, err := http.Get(base + "/readyz")
	if err != nil {
		t.Fatal(err)
	}
	var rz HealthResponse
	if derr := json.NewDecoder(resp.Body).Decode(&rz); derr != nil {
		t.Fatal(derr)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable || rz.Status != "draining" {
		t.Fatalf("draining /readyz = %d %q, want 503 draining", resp.StatusCode, rz.Status)
	}
	// Liveness is unaffected: the process is up, just not accepting work.
	resp, err = http.Get(base + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("/healthz = %d while draining, want 200", resp.StatusCode)
	}
}
