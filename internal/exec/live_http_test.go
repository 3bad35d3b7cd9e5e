package exec

import (
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"path/filepath"
	"sync"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/dag"
	"repro/internal/dagio"
	"repro/internal/sim"
)

// coreFactory resolves every policy name to a fresh WIRE controller — enough
// for exec-level tests (the full policy registry lives in internal/service).
func coreFactory(string, json.RawMessage) (sim.Controller, error) {
	return core.New(core.Config{}), nil
}

func newTestRegistry(t *testing.T, cfg RegistryConfig) *Registry {
	t.Helper()
	if cfg.Factory == nil {
		cfg.Factory = coreFactory
	}
	reg, err := NewRegistry(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return reg
}

// fanoutDoc is a split→work workflow small enough that a 200× run finishes in
// well under a second of wall clock.
func fanoutDoc() *dagio.Document {
	b := dag.NewBuilder("fanout")
	s0 := b.AddStage("split")
	s1 := b.AddStage("work")
	root := b.AddTask(s0, "split", 4, 1, 20)
	for i := 0; i < 6; i++ {
		b.AddTask(s1, fmt.Sprintf("w%d", i), 8, 1, 10, root)
	}
	return dagio.Encode(b.MustBuild())
}

// TestLiveRunOverHTTP is the tentpole integration test: two worker agents —
// the same loop cmd/wire-agent runs — lease and emulate a workflow over HTTP
// against the registry, the WIRE controller steers from measured telemetry,
// and the recorded decision stream must verify against a simulator twin.
func TestLiveRunOverHTTP(t *testing.T) {
	dir := t.TempDir()
	reg := newTestRegistry(t, RegistryConfig{JournalDir: dir})
	ts := httptest.NewServer(liveHandler(reg))
	defer ts.Close()
	client := NewLiveClient(ts.URL)
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()

	info, err := client.CreateRun(ctx, &CreateRunRequest{
		Workflow:         fanoutDoc(),
		SlotsPerInstance: 2,
		LagTimeS:         2,
		ChargingUnitS:    30,
		MaxInstances:     4,
		Timescale:        200,
		MaxWallMs:        30_000,
	})
	if err != nil {
		t.Fatal(err)
	}
	if info.Tasks != 7 || info.State != Created {
		t.Fatalf("run info %+v", info)
	}

	var agents sync.WaitGroup
	for i := 0; i < 2; i++ {
		agents.Add(1)
		go func(i int) {
			defer agents.Done()
			err := RunAgent(ctx, AgentConfig{
				BaseURL:  ts.URL,
				RunID:    info.ID,
				Name:     fmt.Sprintf("worker-%d", i),
				Slots:    2,
				PollWait: 200 * time.Millisecond,
			})
			if err != nil && ctx.Err() == nil {
				t.Errorf("agent %d: %v", i, err)
			}
		}(i)
	}
	if _, err := client.StartRun(ctx, info.ID); err != nil {
		t.Fatal(err)
	}

	var status RunStatusResponse
	waitFor(t, 45*time.Second, "run completion", func() bool {
		status, err = client.RunStatus(ctx, info.ID)
		if err != nil {
			t.Fatal(err)
		}
		return status.State == Done || status.State == Failed
	})
	agents.Wait()
	if status.State != Done || status.Result == nil {
		t.Fatalf("run ended %v: %s", status.State, status.Error)
	}
	res := status.Result
	if status.TasksCompleted != 7 {
		t.Fatalf("completed %d/7 tasks", status.TasksCompleted)
	}
	if res.Counters.LeasesLost != 0 {
		t.Fatalf("%d leases lost", res.Counters.LeasesLost)
	}
	if res.Counters.LeasesCompleted != res.Counters.LeasesGranted-res.Counters.LeasesReclaimed-res.Counters.LeasesSuperseded {
		t.Fatalf("lease identity violated: %+v", res.Counters)
	}
	if res.UnitsCharged < 1 || res.MakespanS <= 0 {
		t.Fatalf("implausible result: %+v", res)
	}

	// Parity certificate: a fresh controller fed the recorded snapshots must
	// reproduce the decision stream byte for byte.
	records, err := client.PlanStream(ctx, info.ID)
	if err != nil {
		t.Fatal(err)
	}
	if len(records) == 0 {
		t.Fatal("no plan records")
	}
	if err := TwinVerify(records, core.New(core.Config{})); err != nil {
		t.Fatalf("parity: %v", err)
	}

	// The journal on disk replays to the dispatcher's final assignment state.
	recs, _, err := ReadJournal(filepath.Join(dir, info.ID+".jsonl"))
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) == 0 || recs[len(recs)-1].Kind != RecRunDone {
		t.Fatalf("journal: %d records, want trailing %s", len(recs), RecRunDone)
	}
	replayed, err := ReplayAssignments(recs)
	if err != nil {
		t.Fatal(err)
	}
	if n := len(replayed.Completed); n != 7 {
		t.Fatalf("journal replay shows %d completed tasks", n)
	}

	m := reg.Metrics()
	if m.RunsDone != 1 || m.Counters.LeasesLost != 0 {
		t.Fatalf("registry metrics %+v", m)
	}
}

// TestDrainWaitsForOutstandingLeases: shutdown must not abandon an agent
// mid-task — Drain blocks (bounded by its context) until the lease completes.
func TestDrainWaitsForOutstandingLeases(t *testing.T) {
	reg := newTestRegistry(t, RegistryConfig{})
	ts := httptest.NewServer(liveHandler(reg))
	defer ts.Close()
	client := NewLiveClient(ts.URL)
	ctx := context.Background()

	info, err := client.CreateRun(ctx, &CreateRunRequest{
		Workflow:         dagio.Encode(flatWorkflow(1, 10000)),
		SlotsPerInstance: 1,
		LagTimeS:         0.001,
		ChargingUnitS:    10,
		MaxInstances:     1,
		Timescale:        1,
		Start:            true,
	})
	if err != nil {
		t.Fatal(err)
	}
	regResp, err := client.Register(ctx, info.ID, "w", 1)
	if err != nil {
		t.Fatal(err)
	}
	var leases []Lease
	waitFor(t, 5*time.Second, "lease grant", func() bool {
		resp, err := client.Poll(ctx, info.ID, regResp.AgentID, 100*time.Millisecond)
		if err != nil {
			t.Fatal(err)
		}
		leases = append(leases, resp.Leases...)
		return len(leases) == 1
	})

	// With the lease in flight, a bounded drain must time out, not return
	// success.
	shortCtx, cancel := context.WithTimeout(ctx, 150*time.Millisecond)
	err = reg.Drain(shortCtx)
	cancel()
	if err == nil {
		t.Fatal("drain returned with a lease outstanding")
	}

	// Draining refuses new runs.
	if _, err := client.CreateRun(ctx, &CreateRunRequest{
		Workflow: fanoutDoc(), SlotsPerInstance: 1, LagTimeS: 1, ChargingUnitS: 10,
	}); !IsCode(err, "draining") {
		t.Fatalf("create while draining: err = %v, want code draining", err)
	}

	// The agent reports; the drain completes promptly.
	if _, err := client.Complete(ctx, info.ID, regResp.AgentID, leases[0].ID, CompleteReport{ExecS: 10000}); err != nil {
		t.Fatal(err)
	}
	drainCtx, cancel := context.WithTimeout(ctx, 5*time.Second)
	defer cancel()
	if err := reg.Drain(drainCtx); err != nil {
		t.Fatalf("drain after completion: %v", err)
	}
}

func TestRegistryLimitsAndErrors(t *testing.T) {
	reg := newTestRegistry(t, RegistryConfig{MaxRuns: 1})
	ts := httptest.NewServer(liveHandler(reg))
	defer ts.Close()
	client := NewLiveClient(ts.URL)
	ctx := context.Background()

	mk := func() (RunInfo, error) {
		return client.CreateRun(ctx, &CreateRunRequest{
			Workflow: fanoutDoc(), SlotsPerInstance: 2, LagTimeS: 2, ChargingUnitS: 30,
		})
	}
	if _, err := client.CreateRun(ctx, &CreateRunRequest{SlotsPerInstance: 1, LagTimeS: 1, ChargingUnitS: 1}); !IsCode(err, "bad_request") {
		t.Fatalf("no workflow: err = %v, want bad_request", err)
	}
	info, err := mk()
	if err != nil {
		t.Fatal(err)
	}
	if _, err := mk(); !IsCode(err, "max_runs") {
		t.Fatalf("second create: err = %v, want code max_runs", err)
	}
	if _, err := client.RunStatus(ctx, "live-missing"); !IsCode(err, "not_found") {
		t.Fatalf("missing run: err = %v, want not_found", err)
	}
	if _, err := client.Poll(ctx, info.ID, "ghost", 0); !IsCode(err, "unknown_agent") {
		t.Fatalf("ghost poll: err = %v, want unknown_agent", err)
	}

	// DELETE frees the slot and aborts the run.
	if err := deleteRun(ctx, client, info.ID); err != nil {
		t.Fatal(err)
	}
	if _, err := mk(); err != nil {
		t.Fatalf("create after delete: %v", err)
	}
	if m := reg.Metrics(); m.Runs != 1 {
		t.Fatalf("metrics after delete: %+v", m)
	}
}

// liveHandler serves only the live-run routes.
func liveHandler(g *Registry) http.Handler {
	mux := http.NewServeMux()
	g.Mount(mux)
	return mux
}

// deleteRun aborts and removes a run.
func deleteRun(ctx context.Context, c *LiveClient, runID string) error {
	return c.do(ctx, http.MethodDelete, "/v1/live/runs/"+runID, nil, nil)
}
