package exec

import (
	"context"
	"fmt"
	"sync"
	"testing"
	"time"

	"repro/internal/cloud"
	"repro/internal/dag"
	"repro/internal/monitor"
	"repro/internal/sim"
)

// holdController never changes the pool: tests drive the lifecycle manually.
type holdController struct{}

func (holdController) Name() string                        { return "hold" }
func (holdController) Plan(*monitor.Snapshot) sim.Decision { return sim.Decision{} }

// keepPool relaunches instances so the held pool stays at n — the minimal
// self-healing policy, enough for a failed agent's replacement to be admitted.
type keepPool struct{ n int }

func (keepPool) Name() string { return "keep-pool" }
func (c keepPool) Plan(snap *monitor.Snapshot) sim.Decision {
	if miss := c.n - len(snap.Instances); miss > 0 {
		return sim.Decision{Launch: miss}
	}
	return sim.Decision{}
}

// flatWorkflow is a single stage of n independent tasks.
func flatWorkflow(n int, exec float64) *dag.Workflow {
	b := dag.NewBuilder("flat")
	s := b.AddStage("work")
	for i := 0; i < n; i++ {
		b.AddTask(s, fmt.Sprintf("t%d", i), exec, 0, 1)
	}
	return b.MustBuild()
}

// waitFor polls cond until it holds or the deadline passes.
func waitFor(t *testing.T, d time.Duration, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(d)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s", what)
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// TestLeaseReclaimExactlyOnce is the agent-kill chaos certificate at unit
// scale: an agent leases every task, goes silent mid-task (a crash from the
// dispatcher's view), its heartbeat lapses, and both leases must be reclaimed
// exactly once, re-granted to a replacement agent, and completed — with the
// journal replay reproducing the dispatcher's exact assignment state. Run
// under -race this also exercises the lock discipline across the reap timer,
// the control tick, and the agent-facing API.
func TestLeaseReclaimExactlyOnce(t *testing.T) {
	sink := &MemorySink{}
	var evMu sync.Mutex
	var events []sim.Event
	cfg := Config{
		Workflow:   flatWorkflow(2, 10000), // tasks never finish on their own
		Controller: keepPool{1},
		Cloud: cloud.Config{
			SlotsPerInstance: 2,
			LagTime:          0.001,
			ChargingUnit:     10,
			MaxInstances:     4,
		},
		Interval:     0.05, // ticks every 50 ms of wall clock
		Timescale:    1,
		HeartbeatTTL: 400 * time.Millisecond,
		Journal:      sink,
		Observer: func(ev sim.Event) {
			evMu.Lock()
			events = append(events, ev)
			evMu.Unlock()
		},
	}
	d, err := NewDispatcher(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer d.Abort("test cleanup")

	regA, err := d.Register("doomed", 2)
	if err != nil {
		t.Fatal(err)
	}
	if err := d.Start(); err != nil {
		t.Fatal(err)
	}

	// Agent A leases both tasks, then goes silent.
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	var held []Lease
	for len(held) < 2 {
		resp, err := d.Poll(ctx, regA.AgentID, 200*time.Millisecond)
		if err != nil {
			t.Fatal(err)
		}
		held = append(held, resp.Leases...)
	}

	// The heartbeat TTL lapses: A is declared failed, its instance surfaces
	// as instance-failed, and both leases are reclaimed exactly once.
	waitFor(t, 5*time.Second, "agent failure", func() bool {
		return d.Counters().AgentsFailed == 1
	})
	if c := d.Counters(); c.LeasesReclaimed != 2 || c.LeasesGranted != 2 {
		t.Fatalf("after failure: %+v", c)
	}

	// A's late completion report must be acked stale, not re-applied.
	if _, err := d.Complete(regA.AgentID, held[0].ID, CompleteReport{ExecS: 1}); err != ErrUnknownAgent {
		t.Fatalf("late report from failed agent: err = %v, want ErrUnknownAgent", err)
	}

	// A replacement worker registers; keepPool admits it onto a fresh
	// instance and the reclaimed tasks are re-granted.
	regB, err := d.Register("replacement", 2)
	if err != nil {
		t.Fatal(err)
	}
	var firstDone bool
	for d.State() == Running {
		resp, err := d.Poll(ctx, regB.AgentID, 50*time.Millisecond)
		if err != nil {
			t.Fatal(err)
		}
		for _, l := range resp.Leases {
			ack, err := d.Complete(regB.AgentID, l.ID, CompleteReport{ExecS: 10000, TransferS: 0, InputMB: 1})
			if err != nil {
				t.Fatal(err)
			}
			if ack.Stale {
				t.Fatalf("fresh completion of lease %d acked stale", l.ID)
			}
			if !firstDone {
				firstDone = true
				// Duplicate report: must be acknowledged stale exactly once.
				dup, err := d.Complete(regB.AgentID, l.ID, CompleteReport{ExecS: 1})
				if err != nil {
					t.Fatal(err)
				}
				if !dup.Stale {
					t.Fatal("duplicate completion not acked stale")
				}
			}
		}
		if resp.Done {
			break
		}
	}

	res, err := d.Wait(ctx)
	if err != nil {
		t.Fatal(err)
	}
	c := res.Counters
	if c.LeasesGranted != 4 || c.LeasesCompleted != 2 || c.LeasesReclaimed != 2 {
		t.Fatalf("lease identity violated: %+v", c)
	}
	if c.LeasesLost != 0 {
		t.Fatalf("%d leases lost", c.LeasesLost)
	}
	if c.StaleReports == 0 {
		t.Fatalf("duplicate completion not counted: %+v", c)
	}
	if res.Restarts != 2 || res.Failures != 1 {
		t.Fatalf("restarts=%d failures=%d, want 2/1", res.Restarts, res.Failures)
	}

	// The failure surfaced in the simulator's event vocabulary.
	evMu.Lock()
	var failed, killed int
	for _, ev := range events {
		switch ev.Kind {
		case sim.EvInstanceFailed:
			failed++
		case sim.EvTaskKilled:
			killed++
		}
	}
	evMu.Unlock()
	if failed != 1 || killed != 2 {
		t.Fatalf("events: %d instance-failed, %d task-killed; want 1/2", failed, killed)
	}

	// Journal replay reproduces the dispatcher's exact assignment state.
	replayed, err := ReplayAssignments(sink.Records())
	if err != nil {
		t.Fatal(err)
	}
	livestate := d.Assignments()
	if !replayed.Equal(livestate) {
		t.Fatalf("journal replay diverged:\nreplay = %+v\nlive   = %+v", replayed, livestate)
	}
	if replayed.Reclaims[0] != 1 || replayed.Reclaims[1] != 1 {
		t.Fatalf("tasks not requeued exactly once: %+v", replayed.Reclaims)
	}
	if replayed.LiveAgents[regA.AgentID] || !replayed.LiveAgents[regB.AgentID] {
		t.Fatalf("live agents after replay: %+v", replayed.LiveAgents)
	}
	assertReplayParity(t, d, sink.Records)
}

// TestDOAWriteoff: a launch order no agent binds within the grace window is
// written off dead-on-arrival and canceled unbilled.
func TestDOAWriteoff(t *testing.T) {
	sink := &MemorySink{}
	d, err := NewDispatcher(Config{
		Journal:    sink,
		Workflow:   flatWorkflow(1, 100),
		Controller: holdController{},
		Cloud: cloud.Config{
			SlotsPerInstance: 2,
			LagTime:          0.02,
			ChargingUnit:     10,
			MaxInstances:     2,
		},
		Interval:  10, // no control tick during the test
		Timescale: 1,
		DOAGrace:  0.03,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer d.Abort("test cleanup")
	if err := d.Start(); err != nil {
		t.Fatal(err)
	}
	waitFor(t, 5*time.Second, "DOA write-off", func() bool {
		return d.Counters().DOAWriteoffs == 1
	})
	if st := d.Status(); st.AgentsRequired != 0 {
		t.Fatalf("written-off instance still held: %+v", st)
	}
	assertReplayParity(t, d, sink.Records)
}

func TestDispatcherConfigValidation(t *testing.T) {
	base := func() Config {
		return Config{
			Workflow:   flatWorkflow(1, 1),
			Controller: holdController{},
			Cloud:      cloud.Config{SlotsPerInstance: 1, LagTime: 1, ChargingUnit: 10, MaxInstances: 1},
		}
	}
	bad := []func(*Config){
		func(c *Config) { c.Workflow = nil },
		func(c *Config) { c.Controller = nil },
		func(c *Config) { c.BusyFrac = 2 },
		func(c *Config) { c.Cloud.ChargingUnit = -1 },
	}
	for i, mutate := range bad {
		cfg := base()
		mutate(&cfg)
		if _, err := NewDispatcher(cfg); err == nil {
			t.Fatalf("case %d: want error", i)
		}
	}
	if _, err := NewDispatcher(base()); err != nil {
		t.Fatalf("valid config rejected: %v", err)
	}
}

func TestAbortBeforeStart(t *testing.T) {
	d, err := NewDispatcher(Config{
		Workflow:   flatWorkflow(1, 1),
		Controller: holdController{},
		Cloud:      cloud.Config{SlotsPerInstance: 1, LagTime: 1, ChargingUnit: 10, MaxInstances: 1},
	})
	if err != nil {
		t.Fatal(err)
	}
	d.Abort("canceled before start")
	if d.State() != Failed {
		t.Fatalf("state = %v", d.State())
	}
	if err := d.Start(); err != ErrRunOver {
		t.Fatalf("Start after abort: %v, want ErrRunOver", err)
	}
	if _, err := d.Register("late", 1); err == nil {
		t.Fatal("Register after abort: want error")
	}
}

func TestPollUnknownAgent(t *testing.T) {
	d, err := NewDispatcher(Config{
		Workflow:   flatWorkflow(1, 1),
		Controller: holdController{},
		Cloud:      cloud.Config{SlotsPerInstance: 1, LagTime: 1, ChargingUnit: 10, MaxInstances: 1},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer d.Abort("test cleanup")
	if err := d.Start(); err != nil {
		t.Fatal(err)
	}
	if _, err := d.Poll(context.Background(), "nope", 0); err != ErrUnknownAgent {
		t.Fatalf("err = %v, want ErrUnknownAgent", err)
	}
	if _, err := d.Complete("nope", 1, CompleteReport{}); err != ErrUnknownAgent {
		t.Fatalf("err = %v, want ErrUnknownAgent", err)
	}
}
