package exec

import (
	"context"
	"fmt"
	"strings"
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

// waitFor polls cond until it holds or the deadline passes. Tests that own
// their dispatcher move a fakeClock instead (wakeAt); waitFor is for runs
// behind the HTTP surface and real agent processes.
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
// scale, on virtual time: an agent leases every task, goes silent mid-task (a
// crash from the dispatcher's view), its heartbeat lapses, and both leases
// must be reclaimed exactly once, re-granted to a replacement agent, and
// completed — with the journal replay reproducing the dispatcher's exact
// assignment state.
func TestLeaseReclaimExactlyOnce(t *testing.T) {
	sink := &MemorySink{}
	cfg, clk := fakeClockConfig(Config{
		Workflow:   flatWorkflow(2, 10000), // tasks never finish on their own
		Controller: keepPool{1},
		Cloud: cloud.Config{
			SlotsPerInstance: 2,
			LagTime:          1,
			ChargingUnit:     10,
			MaxInstances:     4,
		},
		Interval:     1,
		Timescale:    1,
		HeartbeatTTL: 4 * time.Second, // swept every 2 s
		Journal:      sink,
	})
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

	// Instance 0 activates and agent A leases both tasks, then goes silent.
	wakeAt(d, clk, 1)
	ctx := context.Background()
	resp, err := d.Poll(ctx, regA.AgentID, 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(resp.Leases) != 2 {
		t.Fatalf("agent A holds %d leases, want 2", len(resp.Leases))
	}

	// Still inside the heartbeat TTL at the sweep of t=4: nothing happens.
	wakeAt(d, clk, 4)
	if c := d.Counters(); c.AgentsFailed != 0 {
		t.Fatalf("agent failed inside its heartbeat TTL: %+v", c)
	}
	// The sweep of t=6 finds A silent since t=1: it is declared failed, its
	// instance surfaces as instance-failed, and both leases are reclaimed
	// exactly once.
	wakeAt(d, clk, 6)
	if c := d.Counters(); c.AgentsFailed != 1 || c.LeasesReclaimed != 2 || c.LeasesGranted != 2 {
		t.Fatalf("after failure: %+v", c)
	}

	// A's late completion report must be acked stale, not re-applied.
	if _, err := d.Complete(regA.AgentID, resp.Leases[0].ID, CompleteReport{ExecS: 1}); err != ErrUnknownAgent {
		t.Fatalf("late report from failed agent: err = %v, want ErrUnknownAgent", err)
	}

	// A replacement worker registers; keepPool launches a fresh instance at
	// the tick of t=7, the reclaimed tasks come back from their backoff, and
	// they are re-granted when it activates at t=8.
	regB, err := d.Register("replacement", 2)
	if err != nil {
		t.Fatal(err)
	}
	wakeAt(d, clk, 7)
	wakeAt(d, clk, 8)
	resp, err = d.Poll(ctx, regB.AgentID, 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(resp.Leases) != 2 {
		t.Fatalf("replacement holds %d leases, want 2", len(resp.Leases))
	}
	for i, l := range resp.Leases {
		ack, err := d.Complete(regB.AgentID, l.ID, CompleteReport{ExecS: 10000, TransferS: 0, InputMB: 1})
		if err != nil {
			t.Fatal(err)
		}
		if ack.Stale {
			t.Fatalf("fresh completion of lease %d acked stale", l.ID)
		}
		if i == 0 {
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

	res, err := wait(ctx, d)
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

// doaConfig is a one-instance run whose instance is due to activate at t=10
// and to be written off at t=10.5 if no agent is bound; no tick comes before
// t=100.
func doaConfig(sink RecordSink) (Config, *fakeClock) {
	return fakeClockConfig(Config{
		Journal:    sink,
		Workflow:   flatWorkflow(1, 100),
		Controller: holdController{},
		Cloud:      cloud.Config{SlotsPerInstance: 2, LagTime: 10, ChargingUnit: 60, MaxInstances: 2},
		Interval:   100,
		Timescale:  1,
		doaGrace:   0.5,
	})
}

// TestDOAWriteoff: a launch order no agent binds within the grace window is
// written off dead-on-arrival and canceled unbilled.
func TestDOAWriteoff(t *testing.T) {
	sink := &MemorySink{}
	cfg, clk := doaConfig(sink)
	d, err := NewDispatcher(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer d.Abort("test cleanup")
	if err := d.Start(); err != nil {
		t.Fatal(err)
	}
	wakeAt(d, clk, 10.4)
	if c := d.Counters(); c.DOAWriteoffs != 0 {
		t.Fatalf("written off inside the grace window: %+v", c)
	}
	wakeAt(d, clk, 10.5)
	if c := d.Counters(); c.DOAWriteoffs != 1 {
		t.Fatalf("not written off at the end of the grace window: %+v", c)
	}
	if st := d.Status(); st.AgentsRequired != 0 {
		t.Fatalf("written-off instance still held: %+v", st)
	}
	assertReplayParity(t, d, sink.Records)
}

// TestDOANeverWritesOffABoundInstance: a write-off is for a launch that never
// bound an agent. With the default grace of one interval, an instance bound
// before its activation instant (t=10) goes active even when the wake that
// finds it comes after its DOA instant (t=11) too.
func TestDOANeverWritesOffABoundInstance(t *testing.T) {
	sink := &MemorySink{}
	cfg, clk := doaConfig(sink)
	cfg.doaGrace, cfg.Interval, cfg.HeartbeatTTL = 0, 1, time.Hour
	d, err := NewDispatcher(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer d.Abort("test cleanup")
	reg, err := d.Register("w", 2)
	if err != nil {
		t.Fatal(err)
	}
	if err := d.Start(); err != nil { // binds w to instance 0, due at t=10
		t.Fatal(err)
	}
	wakeAt(d, clk, 11)
	if c := d.Counters(); c.DOAWriteoffs != 0 || c.LeasesGranted != 1 {
		t.Fatalf("bound instance written off or idle: %+v", c)
	}
	if st := d.Status(); len(st.Agents) != 1 || st.Agents[0].ID != reg.AgentID || st.Agents[0].Status != "active" {
		t.Fatalf("agent not active on its instance: %+v", st.Agents)
	}
	assertReplayParity(t, d, sink.Records)
}

// slowController holds a pool of one instance, and each of its plans costs
// two control intervals (one second each) of wall time: it moves the run's
// clock on while the dispatcher waits for the decision.
type slowController struct {
	keepPool
	clk   *fakeClock
	plans int
	until float64 // the clock the last plan left, in seconds
}

func (c *slowController) Plan(snap *monitor.Snapshot) sim.Decision {
	c.plans++
	c.until = float64(snap.Now) + 2
	c.clk.set(c.until)
	return c.keepPool.Plan(snap)
}

// TestSlowTickRunsOncePerWake: when a tick costs more than the interval, the
// ticks its own cost made due must not be run back to back inside one wake,
// or the wake never returns. Each wake plans once, on the current state, and
// the run completes and replays.
func TestSlowTickRunsOncePerWake(t *testing.T) {
	sink := &MemorySink{}
	ctrl := &slowController{keepPool: keepPool{1}}
	cfg, clk := fakeClockConfig(Config{
		Journal:      sink,
		Workflow:     flatWorkflow(2, 1),
		Controller:   ctrl,
		Cloud:        cloud.Config{SlotsPerInstance: 2, LagTime: 1, ChargingUnit: 10, MaxInstances: 1},
		Interval:     1,
		Timescale:    1,
		HeartbeatTTL: time.Hour,
	})
	ctrl.clk = clk
	d, err := NewDispatcher(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer d.Abort("test cleanup")
	reg, err := d.Register("w", 2)
	if err != nil {
		t.Fatal(err)
	}
	if err := d.Start(); err != nil {
		t.Fatal(err)
	}
	at := 1.0 // the first tick
	for wake := 1; d.State() == Running; wake++ {
		if wake > 10 {
			t.Fatalf("run still going after %d wakes: %+v", wake-1, d.Status())
		}
		wakeAt(d, clk, at)
		if ctrl.plans != wake {
			t.Fatalf("wake %d at t=%v: %d plans in all, want one per wake", wake, at, ctrl.plans)
		}
		at = ctrl.until // a tick is due again: the last one took two intervals
		resp, err := d.Poll(context.Background(), reg.AgentID, 0)
		if err != nil {
			t.Fatal(err)
		}
		for _, l := range resp.Leases {
			if _, err := d.Complete(reg.AgentID, l.ID, CompleteReport{ExecS: 1}); err != nil {
				t.Fatal(err)
			}
		}
	}
	if st := d.State(); st != Done {
		t.Fatalf("run ended %v: %v", st, runErr(d))
	}
	assertReplayParity(t, d, sink.Records)
}

// TestWallHorizon: a run still going at its wall horizon fails there.
func TestWallHorizon(t *testing.T) {
	sink := &MemorySink{}
	cfg, clk := fakeClockConfig(Config{
		Journal:    sink,
		Workflow:   flatWorkflow(1, 100),
		Controller: holdController{},
		Cloud:      cloud.Config{SlotsPerInstance: 1, LagTime: 1, ChargingUnit: 10, MaxInstances: 1},
		Interval:   1000,
		Timescale:  1,
		doaGrace:   1000,
		MaxWall:    time.Minute,
	})
	d, err := NewDispatcher(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := d.Start(); err != nil {
		t.Fatal(err)
	}
	wakeAt(d, clk, 59.9)
	if st := d.State(); st != Running {
		t.Fatalf("run %v before its horizon: %v", st, runErr(d))
	}
	wakeAt(d, clk, 60)
	if st, err := d.State(), runErr(d); st != Failed || err == nil || !strings.Contains(err.Error(), "wall horizon") {
		t.Fatalf("run %v at its horizon: %v", st, err)
	}
	if _, err := d.Register("late", 1); err != ErrRunOver {
		t.Fatalf("Register after the horizon: %v, want ErrRunOver", err)
	}
	assertReplayParity(t, d, sink.Records)
}

// TestPollWaitsOnRealTime: a long poll is paced by a real timer of the wait,
// whatever the run's clock says — under a clock that never moves it returns
// after the wait instead of spinning until its context ends.
func TestPollWaitsOnRealTime(t *testing.T) {
	cfg, _ := fakeClockConfig(Config{
		Workflow:   flatWorkflow(1, 1),
		Controller: holdController{},
		Cloud:      cloud.Config{SlotsPerInstance: 1, LagTime: 1, ChargingUnit: 10, MaxInstances: 1},
	})
	d, err := NewDispatcher(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer d.Abort("test cleanup")
	reg, err := d.Register("w", 1)
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	start := time.Now()
	resp, err := d.Poll(ctx, reg.AgentID, 200*time.Millisecond)
	if err != nil {
		t.Fatalf("poll: %v after %v", err, time.Since(start))
	}
	if took := time.Since(start); took < 200*time.Millisecond || took > time.Second {
		t.Fatalf("a 200 ms poll took %v", took)
	}
	if len(resp.Leases) != 0 || resp.Done {
		t.Fatalf("poll of an unstarted run: %+v", resp)
	}
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

// MemorySink accumulates a run's journal records in memory.
type MemorySink struct {
	mu   sync.Mutex
	recs []Record
}

// Append implements RecordSink.
func (m *MemorySink) Append(r Record) error {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.recs = append(m.recs, r)
	return nil
}

// Records returns a copy of the accumulated records.
func (m *MemorySink) Records() []Record {
	m.mu.Lock()
	defer m.mu.Unlock()
	out := make([]Record, len(m.recs))
	copy(out, m.recs)
	return out
}

// wait blocks until the run finishes or ctx is canceled, then returns the
// result (nil on Failed) and the run error.
func wait(ctx context.Context, d *Dispatcher) (*LiveResult, error) {
	select {
	case <-ctx.Done():
		return nil, ctx.Err()
	case <-d.done:
	}
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.result, d.runErr
}

// runErr returns the run error (nil unless Failed).
func runErr(d *Dispatcher) error {
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.runErr
}
