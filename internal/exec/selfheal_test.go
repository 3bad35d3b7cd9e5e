package exec

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/cloud"
	"repro/internal/dag"
	"repro/internal/dagio"
	"repro/internal/wal"
)

// TestRegisterReconnectSameName: a returning agent (same non-empty name) keeps
// its identity instead of being admitted as a fresh worker — the property that
// lets both a restarted worker and a journal-recovered daemon preserve lease
// identity across the outage.
func TestRegisterReconnectSameName(t *testing.T) {
	sink := &MemorySink{}
	d, err := NewDispatcher(Config{
		Workflow:   flatWorkflow(2, 10),
		Controller: holdController{},
		Cloud:      cloud.Config{SlotsPerInstance: 2, LagTime: 1, ChargingUnit: 10, MaxInstances: 1},
		Journal:    sink,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer d.Abort("test cleanup")

	r1, err := d.Register("w", 2)
	if err != nil {
		t.Fatal(err)
	}
	r2, err := d.Register("w", 4)
	if err != nil {
		t.Fatal(err)
	}
	if r1.AgentID != r2.AgentID {
		t.Fatalf("reconnect changed identity: %s -> %s", r1.AgentID, r2.AgentID)
	}
	if c := d.Counters(); c.AgentsRegistered != 1 {
		t.Fatalf("reconnect counted as a registration: %+v", c)
	}
	r3, err := d.Register("other", 1)
	if err != nil {
		t.Fatal(err)
	}
	if r3.AgentID == r1.AgentID {
		t.Fatal("distinct name reused an identity")
	}
	assertReplayParity(t, d, sink.Records)
}

// poisonDoc is a flat stage where the first task is the designated poison
// task: the agents crash every attempt of it.
func poisonDoc() (*dagio.Document, dag.TaskID) {
	b := dag.NewBuilder("poison")
	s := b.AddStage("work")
	poison := b.AddTask(s, "poison", 8, 1, 10)
	for i := 0; i < 4; i++ {
		b.AddTask(s, fmt.Sprintf("ok%d", i), 8, 1, 10)
	}
	return dagio.Encode(b.MustBuild()), poison
}

// poisonAgent is a worker that crashes every attempt of task poison, told
// through the agent protocol: the attempt dies a quarter of the way into
// execution, before its transfer report, and is reported Failed. Every other
// lease it emulates and reports whole.
func poisonAgent(ctx context.Context, t *testing.T, client *LiveClient, runID, name string, poison dag.TaskID) {
	reg, err := client.Register(ctx, runID, name, 2)
	if err != nil {
		t.Errorf("agent %s: %v", name, err)
		return
	}
	var wg sync.WaitGroup
	defer wg.Wait()
	for {
		resp, err := client.Poll(ctx, runID, reg.AgentID, 200*time.Millisecond)
		if err != nil {
			if ctx.Err() == nil {
				t.Errorf("agent %s: %v", name, err)
			}
			return
		}
		for _, l := range resp.Leases {
			wg.Add(1)
			go func(l Lease) {
				defer wg.Done()
				spec := l.Spec
				if l.Task == poison {
					spec.TransferS, spec.ExecS = 0, spec.ExecS/4
				}
				rep, err := (&Emulator{Spec: spec}).Run(ctx, nil)
				if err != nil {
					return
				}
				if l.Task == poison {
					rep = CompleteReport{Failed: true, Error: fmt.Sprintf("poison task crashed on attempt %d", l.Attempt)}
				}
				if _, err := client.Complete(ctx, runID, reg.AgentID, l.ID, rep); err != nil && ctx.Err() == nil {
					t.Errorf("agent %s: %v", name, err)
				}
			}(l)
		}
		if resp.Done {
			return
		}
	}
}

// TestPoisonTaskQuarantine is the poison-task chaos certificate: a task whose
// every attempt crashes (poisonAgent reports each one Failed) must be
// retried exactly its attempt budget with backoff, then quarantined, and the
// run must complete in an explicit degraded state instead of hanging.
func TestPoisonTaskQuarantine(t *testing.T) {
	dir := t.TempDir()
	reg := newTestRegistry(t, RegistryConfig{JournalDir: dir})
	ts := httptest.NewServer(liveHandler(reg))
	defer ts.Close()
	client := NewLiveClient(ts.URL)
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()

	doc, poison := poisonDoc()
	info, err := client.CreateRun(ctx, &CreateRunRequest{
		Workflow:         doc,
		SlotsPerInstance: 2,
		LagTimeS:         2,
		ChargingUnitS:    30,
		MaxInstances:     2,
		Timescale:        200,
		MaxWallMs:        30_000,
		MaxTaskAttempts:  3,
		RequeueBaseMs:    10,
	})
	if err != nil {
		t.Fatal(err)
	}

	var agents sync.WaitGroup
	for i := 0; i < 2; i++ {
		agents.Add(1)
		go func(i int) {
			defer agents.Done()
			poisonAgent(ctx, t, client, info.ID, fmt.Sprintf("worker-%d", i), poison)
		}(i)
	}
	if _, err := client.StartRun(ctx, info.ID); err != nil {
		t.Fatal(err)
	}

	var status RunStatusResponse
	waitFor(t, 45*time.Second, "degraded completion", func() bool {
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
	if !res.Degraded || res.QuarantinedTasks != 1 {
		t.Fatalf("degraded=%v quarantined=%d, want degraded with 1 quarantined task", res.Degraded, res.QuarantinedTasks)
	}
	if status.TasksCompleted != 4 {
		t.Fatalf("completed %d tasks, want the 4 healthy ones", status.TasksCompleted)
	}
	if res.Counters.QuarantinedTasks != 1 || res.Counters.LeasesLost != 0 {
		t.Fatalf("counters: %+v", res.Counters)
	}
	if got := res.Counters.LeasesGranted - res.Counters.LeasesCompleted -
		res.Counters.LeasesReclaimed - res.Counters.LeasesSuperseded; got != 0 {
		t.Fatalf("lease identity violated by %d: %+v", got, res.Counters)
	}

	// The journal records the quarantine at exactly the attempt budget.
	recs, _, err := ReadJournal(filepath.Join(dir, info.ID+".jsonl"))
	if err != nil {
		t.Fatal(err)
	}
	var quarantined *Record
	for i := range recs {
		if recs[i].Kind == RecTaskQuarantined {
			quarantined = &recs[i]
		}
	}
	if quarantined == nil {
		t.Fatal("no task-quarantined record in journal")
	}
	if quarantined.Task == nil || *quarantined.Task != int(poison) || quarantined.Attempt != 3 {
		t.Fatalf("quarantine record %+v, want task %d at attempt 3", quarantined, poison)
	}
	reg.mu.Lock()
	d := reg.runs[info.ID].d
	reg.mu.Unlock()
	assertReplayParity(t, d, func() []Record { return recs })
}

// TestStragglerSpeculation is the slow-agent chaos certificate: a turtle agent
// sits on its leases while a rabbit completes the rest of the stage; once the
// online predictor has sibling observations, the dispatcher must issue
// speculative duplicates to the rabbit, the duplicates must win, and the
// turtle's primaries must be superseded — with the turtle's eventual late
// report acked stale.
func TestStragglerSpeculation(t *testing.T) {
	sink := &MemorySink{}
	d, err := NewDispatcher(Config{
		Journal:    sink,
		Workflow:   flatWorkflow(6, 30),
		Controller: keepPool{2},
		Cloud: cloud.Config{
			SlotsPerInstance: 2,
			LagTime:          0.001,
			ChargingUnit:     100,
			MaxInstances:     2,
		},
		Interval:          5,
		Timescale:         200, // simulated time races ahead of the wall clock
		LeaseFactor:       400, // the straggler must be speculated, not reclaimed
		HeartbeatTTL:      2 * time.Second,
		SpeculationFactor: 2,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer d.Abort("test cleanup")

	turtle, err := d.Register("turtle", 2)
	if err != nil {
		t.Fatal(err)
	}
	rabbit, err := d.Register("rabbit", 2)
	if err != nil {
		t.Fatal(err)
	}
	if err := d.Start(); err != nil {
		t.Fatal(err)
	}

	ctx, cancel := context.WithTimeout(context.Background(), 20*time.Second)
	defer cancel()

	// The turtle heartbeats but never completes; it remembers its first lease
	// so it can file a late report after being superseded.
	var turtleMu sync.Mutex
	var turtleLeases []Lease
	var loops sync.WaitGroup
	loops.Add(2)
	go func() {
		defer loops.Done()
		for ctx.Err() == nil {
			resp, err := d.Poll(ctx, turtle.AgentID, 50*time.Millisecond)
			if err != nil || resp.Done {
				return
			}
			turtleMu.Lock()
			turtleLeases = append(turtleLeases, resp.Leases...)
			turtleMu.Unlock()
		}
	}()
	// The rabbit completes everything it is handed, including speculative
	// duplicates of the turtle's tasks.
	go func() {
		defer loops.Done()
		for ctx.Err() == nil {
			resp, err := d.Poll(ctx, rabbit.AgentID, 50*time.Millisecond)
			if err != nil {
				return
			}
			for _, l := range resp.Leases {
				if _, err := d.Complete(rabbit.AgentID, l.ID, CompleteReport{ExecS: 30, InputMB: 1}); err != nil {
					return
				}
			}
			if resp.Done {
				return
			}
		}
	}()

	res, err := wait(ctx, d)
	if err != nil {
		t.Fatal(err)
	}
	loops.Wait()
	c := res.Counters
	if c.SpeculationsLaunched < 1 || c.SpeculationsWon < 1 {
		t.Fatalf("speculation never fired: %+v", c)
	}
	if c.LeasesSuperseded < 1 {
		t.Fatalf("straggler primary not superseded: %+v", c)
	}
	if c.LeasesLost != 0 || res.Degraded {
		t.Fatalf("lost=%d degraded=%v: %+v", c.LeasesLost, res.Degraded, c)
	}
	if got := c.LeasesGranted - c.LeasesCompleted - c.LeasesReclaimed - c.LeasesSuperseded; got != 0 {
		t.Fatalf("lease identity violated by %d: %+v", got, c)
	}

	// The turtle finally reports a superseded lease: acked stale, never
	// re-applied.
	turtleMu.Lock()
	late := append([]Lease(nil), turtleLeases...)
	turtleMu.Unlock()
	if len(late) == 0 {
		t.Fatal("turtle never received a lease")
	}
	ack, err := d.Complete(turtle.AgentID, late[0].ID, CompleteReport{ExecS: 900})
	if err != nil {
		t.Fatal(err)
	}
	if !ack.Stale {
		t.Fatal("late report on superseded lease not acked stale")
	}
	assertReplayParity(t, d, sink.Records)
}

// slowDoc is a fanout workflow slow enough (at 200x) that a mid-run daemon
// kill lands while most work is still outstanding.
func slowDoc() *dagio.Document {
	b := dag.NewBuilder("slow-fanout")
	s0 := b.AddStage("split")
	s1 := b.AddStage("work")
	root := b.AddTask(s0, "split", 4, 1, 20)
	for i := 0; i < 6; i++ {
		b.AddTask(s1, fmt.Sprintf("w%d", i), 60, 1, 10, root)
	}
	return dagio.Encode(b.MustBuild())
}

// TestDispatcherCrashRecovery is the server-kill certificate at unit scale:
// the daemon "crashes" mid-run (its listener dies and its journal is frozen at
// that instant), a fresh registry recovers the run from the journal alone, the
// HTTP surface comes back on the same address, and the same worker agents —
// which rode out the outage on their poll backoff — finish the run with lease
// identity intact and the decision stream verified by the simulator twin.
func TestDispatcherCrashRecovery(t *testing.T) {
	dir1, dir2 := t.TempDir(), t.TempDir()
	reg1 := newTestRegistry(t, RegistryConfig{JournalDir: dir1})
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	addr := ln.Addr().String()
	srv1 := &http.Server{Handler: liveHandler(reg1)}
	go srv1.Serve(ln)
	base := "http://" + addr
	client := NewLiveClient(base)
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()

	info, err := client.CreateRun(ctx, &CreateRunRequest{
		Workflow:         slowDoc(),
		SlotsPerInstance: 2,
		LagTimeS:         2,
		ChargingUnitS:    30,
		MaxInstances:     4,
		Timescale:        200,
		MaxWallMs:        50_000,
	})
	if err != nil {
		t.Fatal(err)
	}

	var agents sync.WaitGroup
	for i := 0; i < 2; i++ {
		agents.Add(1)
		go func(i int) {
			defer agents.Done()
			err := RunAgent(ctx, AgentConfig{
				BaseURL:  base,
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
	waitFor(t, 30*time.Second, "first completion", func() bool {
		st, err := client.RunStatus(ctx, info.ID)
		if err != nil {
			t.Fatal(err)
		}
		return st.TasksCompleted >= 1
	})

	// Crash: the listener dies with leases in flight. Freezing a copy of the
	// journal at this instant is the moment-of-death disk image (the original
	// dispatcher keeps running against dir1, standing in for a process that
	// was SIGKILLed — nothing it does after this point is visible to the
	// recovered daemon).
	srv1.Close()
	raw, err := os.ReadFile(filepath.Join(dir1, info.ID+".jsonl"))
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(dir2, info.ID+".jsonl"), raw, 0o644); err != nil {
		t.Fatal(err)
	}

	// Restart: a fresh registry rebuilds the run from the journal…
	reg2 := newTestRegistry(t, RegistryConfig{JournalDir: dir2})
	n, err := reg2.Recover()
	if err != nil {
		t.Fatal(err)
	}
	if n != 1 {
		t.Fatalf("recovered %d runs, want 1 (journal snapshot had %d bytes)", n, len(raw))
	}
	if m := reg2.Metrics(); m.RunsRecovered != 1 {
		t.Fatalf("runs_recovered = %d, want 1", m.RunsRecovered)
	}
	// …and the HTTP surface returns on the same address the agents are
	// already retrying against.
	var ln2 net.Listener
	waitFor(t, 10*time.Second, "address rebind", func() bool {
		ln2, err = net.Listen("tcp", addr)
		return err == nil
	})
	srv2 := &http.Server{Handler: liveHandler(reg2)}
	go srv2.Serve(ln2)
	defer srv2.Close()

	var status RunStatusResponse
	waitFor(t, 45*time.Second, "post-recovery completion", func() bool {
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
		t.Fatalf("%d leases lost across the crash", res.Counters.LeasesLost)
	}
	if got := res.Counters.LeasesGranted - res.Counters.LeasesCompleted -
		res.Counters.LeasesReclaimed - res.Counters.LeasesSuperseded; got != 0 {
		t.Fatalf("lease identity violated by %d: %+v", got, res.Counters)
	}

	// The recovered journal must still fold to a consistent assignment state,
	// and the full decision stream — pre-crash prefix plus post-recovery
	// decisions — must replay byte-identical through a fresh controller.
	recs, _, err := ReadJournal(filepath.Join(dir2, info.ID+".jsonl"))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := ReplayAssignments(recs); err != nil {
		t.Fatalf("post-recovery journal does not replay: %v", err)
	}
	records, err := client.PlanStream(ctx, info.ID)
	if err != nil {
		t.Fatal(err)
	}
	if len(records) == 0 {
		t.Fatal("no plan records")
	}
	twin, err := coreFactory("wire", nil)
	if err != nil {
		t.Fatal(err)
	}
	if err := TwinVerify(records, twin); err != nil {
		t.Fatalf("parity across restart: %v", err)
	}
}

// TestDeleteVsCompleteRace: a run DELETE racing an in-flight lease completion
// must never panic, resurrect run state, or lose the delete — the late report
// is either acked (run still up), acked stale, or rejected not_found.
func TestDeleteVsCompleteRace(t *testing.T) {
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()
	b := dag.NewBuilder("race")
	s := b.AddStage("work")
	for i := 0; i < 2; i++ {
		b.AddTask(s, fmt.Sprintf("t%d", i), 10_000, 0, 1)
	}
	doc := dagio.Encode(b.MustBuild())

	for round := 0; round < 6; round++ {
		reg := newTestRegistry(t, RegistryConfig{})
		ts := httptest.NewServer(liveHandler(reg))
		client := NewLiveClient(ts.URL)
		info, err := client.CreateRun(ctx, &CreateRunRequest{
			Workflow:         doc,
			SlotsPerInstance: 2,
			LagTimeS:         0.001,
			ChargingUnitS:    10,
			MaxInstances:     1,
			IntervalS:        0.05,
			Timescale:        1,
			Start:            true,
		})
		if err != nil {
			t.Fatal(err)
		}
		regResp, err := client.Register(ctx, info.ID, "w", 2)
		if err != nil {
			t.Fatal(err)
		}
		var leases []Lease
		waitFor(t, 10*time.Second, "leases granted", func() bool {
			resp, err := client.Poll(ctx, info.ID, regResp.AgentID, 100*time.Millisecond)
			if err != nil {
				t.Fatal(err)
			}
			leases = append(leases, resp.Leases...)
			return len(leases) >= 2
		})

		var wg sync.WaitGroup
		wg.Add(2)
		go func() {
			defer wg.Done()
			if err := deleteRun(ctx, client, info.ID); err != nil {
				t.Errorf("delete: %v", err)
			}
		}()
		go func() {
			defer wg.Done()
			_, err := client.Complete(ctx, info.ID, regResp.AgentID, leases[0].ID, CompleteReport{ExecS: 1})
			if err != nil && !IsCode(err, "not_found") && !IsCode(err, "unknown_agent") {
				t.Errorf("racing complete: %v", err)
			}
		}()
		wg.Wait()

		// The run is gone and stays gone: a straggling report cannot
		// resurrect it.
		if _, err := client.Complete(ctx, info.ID, regResp.AgentID, leases[1].ID, CompleteReport{ExecS: 1}); !IsCode(err, "not_found") {
			t.Fatalf("report after delete: err = %v, want not_found", err)
		}
		if _, err := client.RunStatus(ctx, info.ID); !IsCode(err, "not_found") {
			t.Fatalf("status after delete: err = %v, want not_found", err)
		}
		ts.Close()
	}
}

// TestAgentBlacklistAndCooldown: enough failures (healthMinEvents, three)
// trip the health score and the agent is drained of new leases by name; after
// the cooldown it is quietly reactivated and finishes the run. On virtual
// time: the cooldown ends at t=4, one tick after the failed tasks return from
// their backoff.
func TestAgentBlacklistAndCooldown(t *testing.T) {
	sink := &MemorySink{}
	cfg, clk := fakeClockConfig(Config{
		Journal:    sink,
		Workflow:   flatWorkflow(healthMinEvents, 5),
		Controller: keepPool{1},
		Cloud: cloud.Config{
			SlotsPerInstance: healthMinEvents,
			LagTime:          1,
			ChargingUnit:     10,
			MaxInstances:     2,
		},
		Interval:       1,
		Timescale:      1,
		RequeueBase:    time.Second,
		healthCooldown: 3 * time.Second,
	})
	d, err := NewDispatcher(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer d.Abort("test cleanup")

	reg, err := d.Register("flaky", healthMinEvents)
	if err != nil {
		t.Fatal(err)
	}
	if err := d.Start(); err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	poll := func() []Lease {
		t.Helper()
		resp, err := d.Poll(ctx, reg.AgentID, 0)
		if err != nil {
			t.Fatal(err)
		}
		return resp.Leases
	}

	wakeAt(d, clk, 1)
	held := poll()
	if len(held) != healthMinEvents {
		t.Fatalf("agent holds %d leases, want %d", len(held), healthMinEvents)
	}
	for _, l := range held {
		if _, err := d.Complete(reg.AgentID, l.ID, CompleteReport{Failed: true, Error: "boom"}); err != nil {
			t.Fatal(err)
		}
	}
	if c := d.Counters(); c.AgentsBlacklisted != 1 {
		t.Fatalf("no blacklist decision: %+v", c)
	}
	st := d.Status()
	if len(st.Agents) != 1 || !st.Agents[0].Blacklisted {
		t.Fatalf("agent not reported blacklisted: %+v", st.Agents)
	}

	// The tasks are requeued at t=2, but nothing flows to the benched agent.
	wakeAt(d, clk, 2)
	if c := d.Counters(); c.LeasesGranted != healthMinEvents || d.queue.Len() != healthMinEvents {
		t.Fatalf("tasks not waiting out the cooldown in the queue (%d queued): %+v", d.queue.Len(), c)
	}
	// Cooldown elapses; the next tick hands the requeued tasks back to the
	// reactivated agent and the run completes clean.
	wakeAt(d, clk, 4)
	held = poll()
	if len(held) != healthMinEvents {
		t.Fatalf("reactivated agent holds %d leases, want %d", len(held), healthMinEvents)
	}
	for _, l := range held {
		if _, err := d.Complete(reg.AgentID, l.ID, CompleteReport{ExecS: 5, InputMB: 1}); err != nil {
			t.Fatal(err)
		}
	}
	res, err := wait(ctx, d)
	if err != nil {
		t.Fatal(err)
	}
	if res.Degraded || res.Counters.LeasesLost != 0 {
		t.Fatalf("degraded=%v counters=%+v", res.Degraded, res.Counters)
	}
	if st := d.Status(); len(st.Agents) != 1 || st.Agents[0].Blacklisted {
		t.Fatalf("agent still blacklisted after cooldown: %+v", st.Agents)
	}
	assertReplayParity(t, d, sink.Records)
}

// TestAgentTypedRegisterError: terminal registration rejections surface as
// RegisterError with a stable code, so wire-agent can exit non-zero instead of
// retrying forever.
func TestAgentTypedRegisterError(t *testing.T) {
	reg := newTestRegistry(t, RegistryConfig{})
	ts := httptest.NewServer(liveHandler(reg))
	defer ts.Close()
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()

	err := RunAgent(ctx, AgentConfig{BaseURL: ts.URL, RunID: "live-nope", Name: "w", Slots: 1})
	var rerr *RegisterError
	if !errors.As(err, &rerr) || rerr.Code != "not_found" {
		t.Fatalf("unknown run: err = %v, want RegisterError{not_found}", err)
	}

	// A run that already failed rejects registration as run_over. (Failing
	// at the wall horizon is TestWallHorizon's, on virtual time.)
	client := NewLiveClient(ts.URL)
	info, err := client.CreateRun(ctx, &CreateRunRequest{
		Workflow:         fanoutDoc(),
		SlotsPerInstance: 2,
		LagTimeS:         2,
		ChargingUnitS:    30,
		MaxInstances:     2,
		Timescale:        200,
		Start:            true,
	})
	if err != nil {
		t.Fatal(err)
	}
	reg.mu.Lock()
	reg.runs[info.ID].d.Abort("failed for the test")
	reg.mu.Unlock()
	err = RunAgent(ctx, AgentConfig{BaseURL: ts.URL, RunID: info.ID, Name: "late", Slots: 1})
	if !errors.As(err, &rerr) || rerr.Code != "run_over" {
		t.Fatalf("finished run: err = %v, want RegisterError{run_over}", err)
	}
}

// TestSelfHealingMetricsKeys pins the wire names of the self-healing counters:
// operators' dashboards key on these strings in the /metrics live block.
func TestSelfHealingMetricsKeys(t *testing.T) {
	reg := newTestRegistry(t, RegistryConfig{})
	b, err := json.Marshal(reg.Metrics())
	if err != nil {
		t.Fatal(err)
	}
	for _, key := range []string{
		"runs_recovered",
		"leases_superseded",
		"quarantined_tasks_total",
		"speculations_launched_total",
		"speculations_won_total",
		"speculations_wasted_total",
		"blacklisted_agents",
		"journal_errors",
	} {
		if !strings.Contains(string(b), `"`+key+`"`) {
			t.Errorf("metrics dump missing %q: %s", key, b)
		}
	}
}

// TestReopenedSinkTruncatesTornTail: reopening a journal that died mid-append
// must drop the torn line and continue the sequence cleanly — the property
// recovery relies on to share a file across daemon generations.
func TestReopenedSinkTruncatesTornTail(t *testing.T) {
	path := filepath.Join(t.TempDir(), "live-x.jsonl")
	sink, err := NewFileSink(path, wal.Policy{})
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range []Record{{Seq: 1, Kind: RecRunCreated, Detail: "wf"}, {Seq: 2, Kind: RecAgentRegistered, Agent: "a1"}} {
		if err := sink.Append(r); err != nil {
			t.Fatal(err)
		}
	}
	if err := sink.Close(); err != nil {
		t.Fatal(err)
	}
	f, err := os.OpenFile(path, os.O_APPEND|os.O_WRONLY, 0)
	if err != nil {
		t.Fatal(err)
	}
	f.WriteString(`{"seq":3,"kind":"lease-gr`)
	f.Close()

	_, end, err := ReadJournal(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := wal.Cut(path, end); err != nil {
		t.Fatal(err)
	}
	reopened, err := NewFileSink(path, wal.Policy{})
	if err != nil {
		t.Fatal(err)
	}
	if err := reopened.Append(Record{Seq: 3, Kind: RecRunStarted}); err != nil {
		t.Fatal(err)
	}
	if err := reopened.Close(); err != nil {
		t.Fatal(err)
	}
	recs, _, err := ReadJournal(path)
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != 3 || recs[2].Kind != RecRunStarted || recs[2].Seq != 3 {
		t.Fatalf("records after reopen: %+v", recs)
	}
}
