package sim

import (
	"math"
	"testing"

	"repro/internal/cloud"
	"repro/internal/dag"
	"repro/internal/dist"
	"repro/internal/monitor"
	"repro/internal/simtime"
)

// holdController keeps the pool as-is.
type holdController struct{}

func (holdController) Name() string                    { return "hold" }
func (holdController) Plan(*monitor.Snapshot) Decision { return Decision{} }

// scriptController replays a fixed list of decisions, one per tick, and
// keeps a copy of every snapshot it is shown.
type scriptController struct {
	decisions []Decision
	i         int
	snaps     []*monitor.Snapshot
}

func (s *scriptController) Name() string { return "script" }
func (s *scriptController) Plan(snap *monitor.Snapshot) Decision {
	s.snaps = append(s.snaps, snap.Clone())
	if s.i < len(s.decisions) {
		d := s.decisions[s.i]
		s.i++
		return d
	}
	return Decision{}
}

func testCloud() cloud.Config {
	return cloud.Config{SlotsPerInstance: 1, LagTime: 10, ChargingUnit: 100, MaxInstances: 12}
}

func chain(n int, exec, transfer float64) *dag.Workflow {
	b := dag.NewBuilder("chain")
	st := b.AddStage("s")
	var prev dag.TaskID = -1
	for i := 0; i < n; i++ {
		if prev < 0 {
			prev = b.AddTask(st, "t", exec, transfer, 1)
		} else {
			prev = b.AddTask(st, "t", exec, transfer, 1, prev)
		}
	}
	return b.MustBuild()
}

func fan(n int, exec, transfer float64) *dag.Workflow {
	b := dag.NewBuilder("fan")
	st := b.AddStage("s")
	for i := 0; i < n; i++ {
		b.AddTask(st, "t", exec, transfer, 1)
	}
	return b.MustBuild()
}

func TestSingleTaskMakespan(t *testing.T) {
	wf := chain(1, 30, 5)
	res, err := Run(wf, holdController{}, Config{Cloud: testCloud()})
	if err != nil {
		t.Fatal(err)
	}
	// Instance active at lag=10, task occupies 35 s -> makespan 45.
	if !sameInstant(res.Makespan, 45) {
		t.Fatalf("makespan = %v, want 45", res.Makespan)
	}
	if len(res.TaskRuns) != 1 {
		t.Fatalf("task runs = %d", len(res.TaskRuns))
	}
	tr := res.TaskRuns[0]
	if tr.ObservedExec != 30 || tr.ObservedTransfer != 5 || tr.Start != 10 || tr.End != 45 {
		t.Fatalf("task run = %+v", tr)
	}
	if res.UnitsCharged != 1 {
		t.Fatalf("units = %d, want 1 (35s at u=100)", res.UnitsCharged)
	}
}

func TestChainRespectsDependencies(t *testing.T) {
	wf := chain(3, 10, 0)
	res, err := Run(wf, holdController{}, Config{Cloud: testCloud()})
	if err != nil {
		t.Fatal(err)
	}
	if !sameInstant(res.Makespan, 10+30) {
		t.Fatalf("makespan = %v, want 40", res.Makespan)
	}
	for i := 1; i < len(res.TaskRuns); i++ {
		if res.TaskRuns[i].Start < res.TaskRuns[i-1].End-simtime.Eps {
			t.Fatalf("task %d started before predecessor ended", i)
		}
	}
}

func TestSlotsLimitParallelism(t *testing.T) {
	cc := testCloud()
	cc.SlotsPerInstance = 2
	wf := fan(4, 10, 0)
	res, err := Run(wf, holdController{}, Config{Cloud: cc})
	if err != nil {
		t.Fatal(err)
	}
	// 4 tasks, 2 slots, 10s each: two waves -> 10+20 = 30.
	if !sameInstant(res.Makespan, 30) {
		t.Fatalf("makespan = %v, want 30", res.Makespan)
	}
}

func TestLaunchSpeedsUp(t *testing.T) {
	wf := fan(4, 100, 0)
	// Baseline: single instance, 1 slot -> 10 + 400 = 410.
	res1, err := Run(wf, holdController{}, Config{Cloud: testCloud()})
	if err != nil {
		t.Fatal(err)
	}
	if !sameInstant(res1.Makespan, 410) {
		t.Fatalf("baseline makespan = %v, want 410", res1.Makespan)
	}
	// Launch 3 more at the first tick (t=10): active at t=20.
	sc := &scriptController{decisions: []Decision{{Launch: 3}}}
	res2, err := Run(wf, sc, Config{Cloud: testCloud()})
	if err != nil {
		t.Fatal(err)
	}
	// Task0 on inst0 (10..110); tasks 1-3 start at 20, done at 120.
	if !sameInstant(res2.Makespan, 120) {
		t.Fatalf("scaled makespan = %v, want 120", res2.Makespan)
	}
	if res2.PeakPool != 4 || res2.Launches != 4 {
		t.Fatalf("peak=%d launches=%d", res2.PeakPool, res2.Launches)
	}
}

func TestReleaseKillsAndRequeues(t *testing.T) {
	wf := fan(1, 100, 0)
	// Tick 1 (t=10): task started at 10 on inst 0. Release it immediately
	// and launch a replacement; the task restarts on the new instance.
	sc := &scriptController{decisions: []Decision{
		{}, // t=10: task just started; do nothing
		{Launch: 1, Releases: []ReleaseOrder{{Instance: 0}}}, // t=20
	}}
	res, err := Run(wf, sc, Config{Cloud: testCloud()})
	if err != nil {
		t.Fatal(err)
	}
	if res.Restarts != 1 {
		t.Fatalf("restarts = %d, want 1", res.Restarts)
	}
	// Killed at 20, replacement active at 30, runs 100 -> 130.
	if !sameInstant(res.Makespan, 130) {
		t.Fatalf("makespan = %v, want 130", res.Makespan)
	}
	if res.TaskRuns[0].Restarts != 1 {
		t.Fatalf("task restart count = %d", res.TaskRuns[0].Restarts)
	}
}

func TestReleaseAtBoundary(t *testing.T) {
	cc := testCloud()
	cc.ChargingUnit = 50
	wf := fan(1, 200, 0)
	// Instance 0 active at 10, boundaries at 60, 110, ... Order a
	// boundary release at t=20 and a replacement.
	sc := &scriptController{decisions: []Decision{
		{},
		{Launch: 1, Releases: []ReleaseOrder{{Instance: 0, AtBoundary: true}}}, // t=20
	}}
	res, err := Run(wf, sc, Config{Cloud: cc})
	if err != nil {
		t.Fatal(err)
	}
	// Task killed at boundary t=60 having run 50s; replacement active at
	// 30; restart at 60 on inst 1, runs 200 -> 260.
	if !sameInstant(res.Makespan, 260) {
		t.Fatalf("makespan = %v, want 260", res.Makespan)
	}
	// Instance 0 held 10..60 = exactly one 50s unit; instance 1 held
	// 30..260 = 230s -> 5 units. Total 6.
	if res.UnitsCharged != 6 {
		t.Fatalf("units = %d, want 6", res.UnitsCharged)
	}
}

func TestSnapshotContents(t *testing.T) {
	wf := fan(3, 100, 20)
	sc := &scriptController{}
	cc := testCloud()
	cc.SlotsPerInstance = 2
	_, err := Run(wf, sc, Config{Cloud: cc})
	if err != nil {
		t.Fatal(err)
	}
	if len(sc.snaps) == 0 {
		t.Fatal("no snapshots")
	}
	s0 := sc.snaps[0] // t=10: tasks 0,1 just started (active at 10)
	if s0.Now != 10 || s0.Interval != 10 {
		t.Fatalf("snapshot header: %+v", s0)
	}
	counts := map[monitor.TaskState]int{}
	for i := range s0.Tasks {
		counts[s0.Tasks[i].State]++
	}
	if counts[monitor.Running] != 2 || counts[monitor.Ready] != 1 {
		t.Fatalf("state counts = %v", counts)
	}
	if s0.ActiveLoad() != 3 || s0.RemainingTasks() != 3 || s0.Done() {
		t.Fatal("load accessors wrong")
	}
	// t=40: transfers (20s) finished at t=30 -> observed in snapshot 3
	// (t=40) window (30,40]... transfer obs time is 30, within (20,30]:
	// snapshot at t=30 carries them.
	s2 := sc.snaps[2] // t=30
	if len(s2.RecentTransfers) != 2 {
		t.Fatalf("recent transfers at t=30 = %v", s2.RecentTransfers)
	}
	rec := s2.Task(0)
	if rec.State != monitor.Running || !rec.TransferObserved || rec.TransferTime != 20 {
		t.Fatalf("task record = %+v", rec)
	}
	if rec.Elapsed != 20 {
		t.Fatalf("elapsed = %v, want 20", rec.Elapsed)
	}
	if len(s2.Instances) != 1 || len(s2.Instances[0].Running) != 2 {
		t.Fatalf("instances = %+v", s2.Instances)
	}
}

func TestDeterminism(t *testing.T) {
	wf := fan(20, 50, 5)
	cfg := Config{Cloud: testCloud(), Seed: 7, Interference: dist.NewLognormalFromMean(1, 0.3)}
	r1, err := Run(wf, holdController{}, cfg)
	if err != nil {
		t.Fatal(err)
	}
	r2, err := Run(wf, holdController{}, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if r1.Makespan != r2.Makespan || r1.UnitsCharged != r2.UnitsCharged {
		t.Fatalf("nondeterministic: %v/%v vs %v/%v", r1.Makespan, r1.UnitsCharged, r2.Makespan, r2.UnitsCharged)
	}
	for i := range r1.TaskRuns {
		if r1.TaskRuns[i] != r2.TaskRuns[i] {
			t.Fatalf("task run %d differs", i)
		}
	}
}

func TestInterferencePerturbsTimes(t *testing.T) {
	wf := fan(10, 50, 0)
	cfg := Config{Cloud: testCloud(), Seed: 3, Interference: dist.NewLognormalFromMean(1, 0.5)}
	res, err := Run(wf, holdController{}, cfg)
	if err != nil {
		t.Fatal(err)
	}
	varied := false
	for _, tr := range res.TaskRuns {
		if math.Abs(tr.ObservedExec-50) > 1 {
			varied = true
		}
		if tr.ObservedExec <= 0 {
			t.Fatal("non-positive observed time")
		}
	}
	if !varied {
		t.Fatal("interference had no effect")
	}
}

func TestUtilizationAccounting(t *testing.T) {
	cc := testCloud()
	cc.ChargingUnit = 100
	wf := chain(1, 90, 0)
	res, err := Run(wf, holdController{}, Config{Cloud: cc})
	if err != nil {
		t.Fatal(err)
	}
	// Busy 90s of a 100s charged unit with 1 slot -> 0.9.
	if math.Abs(res.Utilization-0.9) > 1e-9 {
		t.Fatalf("utilization = %v, want 0.9", res.Utilization)
	}
}

func TestControllerProtocolViolation(t *testing.T) {
	wf := chain(1, 100, 0)
	sc := &scriptController{decisions: []Decision{
		{Releases: []ReleaseOrder{{Instance: 99}}},
	}}
	if _, err := Run(wf, sc, Config{Cloud: testCloud()}); err == nil {
		t.Fatal("expected error for unknown instance release")
	}
	sc2 := &scriptController{decisions: []Decision{{Launch: -1}}}
	if _, err := Run(wf, sc2, Config{Cloud: testCloud()}); err == nil {
		t.Fatal("expected error for negative launch")
	}
}

func TestHorizonGuard(t *testing.T) {
	// Release the only instance and never launch again: tasks can never
	// finish and the run must abort at the horizon.
	wf := chain(1, 1000, 0)
	sc := &scriptController{decisions: []Decision{
		{Releases: []ReleaseOrder{{Instance: 0}}},
	}}
	_, err := Run(wf, sc, Config{Cloud: testCloud(), MaxSimTime: 500})
	if err == nil {
		t.Fatal("expected horizon error")
	}
}

func TestLaunchBeyondCapIsBestEffort(t *testing.T) {
	cc := testCloud()
	cc.MaxInstances = 2
	wf := fan(6, 50, 0)
	sc := &scriptController{decisions: []Decision{{Launch: 10}}}
	res, err := Run(wf, sc, Config{Cloud: cc})
	if err != nil {
		t.Fatal(err)
	}
	if res.PeakPool != 2 {
		t.Fatalf("peak pool = %d, want cap 2", res.PeakPool)
	}
}

func TestCancelPendingInstance(t *testing.T) {
	cc := testCloud()
	cc.LagTime = 25 // spans multiple ticks (interval defaults to lag)
	wf := chain(1, 100, 0)
	// Tick at t=25: first instance just active. Launch another (active at
	// 50), then release it while pending at the next tick (t=50 it
	// would activate; release order at t=50 arrives with activation...).
	// Use interval override to get a tick at 30 while pending.
	sc := &scriptController{decisions: []Decision{
		{Launch: 1}, // t=10
		{Releases: []ReleaseOrder{{Instance: 1}}}, // t=20: inst1 pending (active at 35)
	}}
	cfg := Config{Cloud: cc, Interval: 10}
	res, err := Run(wf, sc, cfg)
	if err != nil {
		t.Fatal(err)
	}
	// Canceled pending instance must cost nothing.
	if res.UnitsCharged != 2 { // inst0: 25..125 = 100s at u=100 -> 1? wait
		// inst0 active at 25, task runs 25..125, makespan 125, held
		// 100s -> 1 unit. Canceled inst1 -> 0.
		if res.UnitsCharged != 1 {
			t.Fatalf("units = %d", res.UnitsCharged)
		}
	}
	if res.Restarts != 0 {
		t.Fatalf("restarts = %d", res.Restarts)
	}
}

func TestFirstFivePriorityAcrossStages(t *testing.T) {
	// Stage A: 8 tasks ready at t=0. Stage B: depends on A0; its first
	// tasks should jump the queue once ready.
	b := dag.NewBuilder("prio")
	sa := b.AddStage("A")
	sb := b.AddStage("B")
	a0 := b.AddTask(sa, "a0", 10, 0, 1)
	for i := 1; i < 8; i++ {
		b.AddTask(sa, "a", 10, 0, 1)
	}
	for i := 0; i < 2; i++ {
		b.AddTask(sb, "b", 10, 0, 1, a0)
	}
	wf := b.MustBuild()
	cc := testCloud()
	cc.SlotsPerInstance = 1
	res, err := Run(wf, holdController{}, Config{Cloud: cc})
	if err != nil {
		t.Fatal(err)
	}
	// With one slot: a0 runs first (10..20). B tasks become ready at 20.
	// Stage A tasks a1..a4 are also boosted (first five of A: a0..a4),
	// but B's first-five boost puts b tasks ahead of a5..a7 which are
	// unboosted. Expected order: a0, a1..a4 (boosted, earlier ready),
	// then b0,b1 (boosted, ready at 20) — wait, boosted a1..a4 ready at 0
	// come before b0,b1 ready at 20; a5..a7 unboosted come last.
	order := make([]string, 0, len(res.TaskRuns))
	for _, tr := range res.TaskRuns {
		order = append(order, wf.Task(tr.Task).Name)
	}
	// The last three runs must include a5..a7 (unboosted) after the b's.
	last3 := order[len(order)-3:]
	for _, n := range last3 {
		if n != "a" {
			t.Fatalf("expected unboosted stage-A stragglers last, got %v", order)
		}
	}
	// And the b tasks must appear before those stragglers.
	bSeen := 0
	for _, n := range order[:len(order)-3] {
		if n == "b" {
			bSeen++
		}
	}
	if bSeen != 2 {
		t.Fatalf("b tasks did not jump queue: %v", order)
	}
}

func TestPoolTimelineRecorded(t *testing.T) {
	wf := fan(2, 30, 0)
	res, err := Run(wf, holdController{}, Config{Cloud: testCloud()})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Pool) == 0 {
		t.Fatal("no pool samples")
	}
	last := res.Pool[len(res.Pool)-1]
	if last.Held != 0 {
		t.Fatalf("pool not drained at end: %+v", last)
	}
}

func TestInstanceSpeedHeterogeneity(t *testing.T) {
	// With per-instance speed factors, the same nominal task takes
	// different times on different instances (§II-B).
	wf := fan(8, 100, 0)
	cc := testCloud()
	cc.SlotsPerInstance = 1
	sc := &scriptController{decisions: []Decision{{Launch: 7}}}
	res, err := Run(wf, sc, Config{
		Cloud:         cc,
		Seed:          5,
		InstanceSpeed: dist.Uniform{Lo: 0.5, Hi: 2},
	})
	if err != nil {
		t.Fatal(err)
	}
	byInst := map[cloud.InstanceID]float64{}
	for _, tr := range res.TaskRuns {
		byInst[tr.Instance] = tr.ObservedExec
	}
	if len(byInst) < 4 {
		t.Fatalf("tasks not spread over instances: %v", byInst)
	}
	distinct := map[float64]bool{}
	for _, v := range byInst {
		distinct[v] = true
	}
	if len(distinct) < 3 {
		t.Fatalf("instance speeds had no effect: %v", byInst)
	}
}

func TestInstanceSpeedDeterministic(t *testing.T) {
	wf := fan(6, 50, 0)
	cfg := Config{Cloud: testCloud(), Seed: 11, InstanceSpeed: dist.NewLognormalFromMean(1, 0.3)}
	a, err := Run(wf, holdController{}, cfg)
	if err != nil {
		t.Fatal(err)
	}
	b, err := Run(wf, holdController{}, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if a.Makespan != b.Makespan {
		t.Fatal("instance speed sampling nondeterministic")
	}
}

func TestTransferCongestion(t *testing.T) {
	// Transfers slow down as the pool grows.
	wf := fan(4, 10, 10)
	cc := testCloud()
	cc.SlotsPerInstance = 4
	solo, err := Run(wf, holdController{}, Config{Cloud: cc, TransferCongestion: 0.5})
	if err != nil {
		t.Fatal(err)
	}
	// Same workload with 4 instances: congestion factor 1 + 0.5*3 = 2.5.
	cc2 := testCloud()
	cc2.SlotsPerInstance = 1
	wide, err := Run(wf, holdController{}, Config{
		Cloud: cc2, TransferCongestion: 0.5, InitialInstances: 4,
	})
	if err != nil {
		t.Fatal(err)
	}
	if got := solo.TaskRuns[0].ObservedTransfer; got != 10 {
		t.Fatalf("solo transfer = %v, want 10 (single instance, no congestion)", got)
	}
	// The four activations fire sequentially at t=10, so the dispatches
	// observe pools of 1..4 usable instances: transfers 10, 15, 20, 25.
	var lo, hi float64 = 1e9, 0
	for _, tr := range wide.TaskRuns {
		if tr.ObservedTransfer < lo {
			lo = tr.ObservedTransfer
		}
		if tr.ObservedTransfer > hi {
			hi = tr.ObservedTransfer
		}
	}
	if !sameInstant(lo, 10) || !sameInstant(hi, 25) {
		t.Fatalf("congested transfers span [%v,%v], want [10,25]", lo, hi)
	}
}

func TestFailureInjectionRecovers(t *testing.T) {
	// Frequent failures: the run must still complete, with restarts and
	// failures recorded, because the controller replenishes the pool.
	wf := fan(12, 40, 0)
	cc := testCloud()
	cc.SlotsPerInstance = 2
	res, err := Run(wf, reactiveRelauncher{}, Config{
		Cloud:      cc,
		Seed:       9,
		MTBF:       120, // mean two task-lengths
		MaxSimTime: 1e6,
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.TaskRuns) != 12 {
		t.Fatalf("completed %d tasks", len(res.TaskRuns))
	}
	if res.Failures == 0 {
		t.Fatal("no failures injected at MTBF=120")
	}
	if res.Restarts == 0 {
		t.Fatal("failures killed no running tasks (statistically implausible here)")
	}
}

func TestFailureDeterministic(t *testing.T) {
	wf := fan(8, 30, 0)
	cfg := Config{Cloud: testCloud(), Seed: 4, MTBF: 100, MaxSimTime: 1e6}
	a, err := Run(wf, reactiveRelauncher{}, cfg)
	if err != nil {
		t.Fatal(err)
	}
	b, err := Run(wf, reactiveRelauncher{}, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if a.Failures != b.Failures || a.Makespan != b.Makespan {
		t.Fatalf("failure injection nondeterministic: %d/%v vs %d/%v",
			a.Failures, a.Makespan, b.Failures, b.Makespan)
	}
}

// reactiveRelauncher keeps one instance alive: enough to guarantee progress
// under failure injection without depending on the full WIRE stack.
type reactiveRelauncher struct{}

func (reactiveRelauncher) Name() string { return "relauncher" }

func (reactiveRelauncher) Plan(snap *monitor.Snapshot) Decision {
	if snap.RemainingTasks() > 0 && len(snap.NonDrainingInstances()) == 0 {
		return Decision{Launch: 1}
	}
	return Decision{}
}

// scriptedFaults replays fixed launch fates and straggler delays.
type scriptedFaults struct {
	fates  []LaunchFate
	fi     int
	delays []simtime.Duration
	di     int
}

func (s *scriptedFaults) LaunchFate() LaunchFate {
	if s.fi < len(s.fates) {
		f := s.fates[s.fi]
		s.fi++
		return f
	}
	return LaunchOK
}

func (s *scriptedFaults) ActivationDelay() simtime.Duration {
	if s.di < len(s.delays) {
		d := s.delays[s.di]
		s.di++
		return d
	}
	return 0
}

func TestLostOrderNeverMaterializes(t *testing.T) {
	wf := fan(4, 100, 0)
	sc := &scriptController{decisions: []Decision{{Launch: 3}}}
	cfg := Config{Cloud: testCloud(), Faults: &scriptedFaults{fates: []LaunchFate{LaunchLost, LaunchOK, LaunchOK}}}
	res, err := Run(wf, sc, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.OrdersLost != 1 {
		t.Errorf("OrdersLost = %d, want 1", res.OrdersLost)
	}
	// Bootstrap + the two surviving orders.
	if res.Launches != 3 {
		t.Errorf("launches = %d, want 3", res.Launches)
	}
	// 4 tasks on 3 instances: task0 at 10..110, tasks 1-2 at 20..120,
	// task3 queued behind -> 110..210.
	if !sameInstant(res.Makespan, 210) {
		t.Errorf("makespan = %v, want 210", res.Makespan)
	}
}

func TestDuplicatedOrderMaterializesTwice(t *testing.T) {
	wf := fan(4, 100, 0)
	sc := &scriptController{decisions: []Decision{{Launch: 1}}}
	cfg := Config{Cloud: testCloud(), Faults: &scriptedFaults{fates: []LaunchFate{LaunchDuplicated}}}
	res, err := Run(wf, sc, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.OrdersDuplicated != 1 {
		t.Errorf("OrdersDuplicated = %d, want 1", res.OrdersDuplicated)
	}
	if res.Launches != 3 || res.PeakPool != 3 {
		t.Errorf("launches = %d peak = %d, want 3 and 3", res.Launches, res.PeakPool)
	}
}

func TestDeadOnArrivalWrittenOffUnbilled(t *testing.T) {
	wf := fan(4, 100, 0)
	base, err := Run(wf, holdController{}, Config{Cloud: testCloud()})
	if err != nil {
		t.Fatal(err)
	}

	sc := &scriptController{decisions: []Decision{{Launch: 1}}}
	cfg := Config{Cloud: testCloud(), Faults: &scriptedFaults{fates: []LaunchFate{LaunchDOA}}}
	var doaEvents int
	cfg.Observer = func(ev Event) {
		if ev.Kind == EvInstanceDOA {
			doaEvents++
			// Ordered at t=10, nominal activation 20, default grace = one
			// interval -> written off at 30.
			if !sameInstant(ev.Time, 30) {
				t.Errorf("DOA write-off at %v, want 30", ev.Time)
			}
		}
	}
	res, err := Run(wf, sc, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.DeadOnArrival != 1 || doaEvents != 1 {
		t.Errorf("DeadOnArrival = %d, events = %d, want 1 and 1", res.DeadOnArrival, doaEvents)
	}
	// The DOA launch never ran a task and must not be billed: same cost and
	// makespan as the fault-free single-instance run.
	if res.UnitsCharged != base.UnitsCharged {
		t.Errorf("units = %d, fault-free run paid %d", res.UnitsCharged, base.UnitsCharged)
	}
	if !sameInstant(res.Makespan, base.Makespan) {
		t.Errorf("makespan = %v, fault-free %v", res.Makespan, base.Makespan)
	}
	// While pending, the DOA instance held a cap slot.
	if res.PeakPool != 2 {
		t.Errorf("peak pool = %d, want 2", res.PeakPool)
	}
}

func TestDOAControllerReorders(t *testing.T) {
	// A pool-target controller that keeps re-ordering until it holds 2.
	wf := fan(8, 100, 0)
	target := targetController{want: 2}
	cfg := Config{Cloud: testCloud(), Faults: &scriptedFaults{fates: []LaunchFate{LaunchDOA}}}
	res, err := Run(wf, target, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.DeadOnArrival != 1 {
		t.Fatalf("DeadOnArrival = %d, want 1", res.DeadOnArrival)
	}
	// First order (t=10) is DOA; written off at 30. The controller sees
	// held=2 at t=20 (pending counts), held=1 again at t=30 after the
	// write-off, and re-orders; the replacement activates at 40.
	if res.Launches != 3 {
		t.Errorf("launches = %d, want 3 (bootstrap + DOA + re-order)", res.Launches)
	}
	usable := 0
	for _, s := range res.Pool {
		if s.Usable > usable {
			usable = s.Usable
		}
	}
	if usable != 2 {
		t.Errorf("peak usable = %d, want 2 (re-ordered instance activated)", usable)
	}
}

func TestStragglerDelaysActivation(t *testing.T) {
	wf := fan(2, 100, 0)
	sc := &scriptController{decisions: []Decision{{Launch: 1}}}
	cfg := Config{Cloud: testCloud(), Faults: &scriptedFaults{delays: []simtime.Duration{15}}}
	res, err := Run(wf, sc, cfg)
	if err != nil {
		t.Fatal(err)
	}
	// Ordered at 10, nominal activation 20, straggles to 35; its task runs
	// 35..135 while the bootstrap instance finishes task0 at 110.
	if !sameInstant(res.Makespan, 135) {
		t.Errorf("makespan = %v, want 135", res.Makespan)
	}
	// Billing follows the delayed activation: the straggler is charged from
	// 35 and pays 1 unit for 35..135; the bootstrap instance is held to run
	// end (10..135 = 2 units). Charging from the nominal activation would
	// have billed the straggler 2 units.
	if res.UnitsCharged != 3 {
		t.Errorf("units = %d, want 3", res.UnitsCharged)
	}
}

func TestBootstrapExemptFromStragglers(t *testing.T) {
	wf := fan(1, 30, 0)
	sf := &scriptedFaults{delays: []simtime.Duration{500}}
	res, err := Run(wf, holdController{}, Config{Cloud: testCloud(), Faults: sf})
	if err != nil {
		t.Fatal(err)
	}
	if sf.di != 0 {
		t.Errorf("bootstrap launch consulted the straggler injector %d times", sf.di)
	}
	if !sameInstant(res.Makespan, 40) {
		t.Errorf("makespan = %v, want 40 (undelayed bootstrap)", res.Makespan)
	}
}

// targetController launches toward a fixed pool size.
type targetController struct{ want int }

func (c targetController) Name() string { return "target" }
func (c targetController) Plan(snap *monitor.Snapshot) Decision {
	held := len(snap.Instances)
	if held < c.want {
		return Decision{Launch: c.want - held}
	}
	return Decision{}
}

// sameInstant reports whether a and b denote the same instant within
// simtime.Eps.
func sameInstant(a, b simtime.Time) bool { return math.Abs(a-b) <= simtime.Eps }
