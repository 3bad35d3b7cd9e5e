package sim

import (
	"fmt"
	"math/rand"
	"reflect"
	"testing"

	"repro/internal/cloud"
	"repro/internal/dag"
	"repro/internal/dist"
	"repro/internal/monitor"
	"repro/internal/simtime"
)

// referenceObserve is the full-rebuild observe the incremental one replaced:
// every task record and every instance ever launched is revisited at every
// tick. It refills snap in place, as observe refills the run's own snapshot,
// so both publish the same nil-versus-empty shapes.
func referenceObserve(r *run, snap *monitor.Snapshot, now, lastTick simtime.Time) {
	snap.Now = now
	snap.Interval = r.cfg.interval()
	snap.ChargingUnit = r.cfg.Cloud.ChargingUnit
	snap.LagTime = r.cfg.Cloud.LagTime
	snap.SlotsPerInstance = r.cfg.Cloud.SlotsPerInstance
	snap.MaxInstances = r.cfg.Cloud.MaxInstances
	snap.Workflow = r.wf
	if len(snap.Tasks) != r.wf.NumTasks() {
		snap.Tasks = make([]monitor.TaskRecord, r.wf.NumTasks())
	}
	snap.RecentTransfers = snap.RecentTransfers[:0]
	for _, t := range r.wf.Tasks {
		ts := &r.tasks[t.ID]
		rec := monitor.TaskRecord{ID: t.ID, Stage: t.Stage, State: ts.state, InputSize: t.InputSize, ReadyAt: ts.readyAt}
		switch ts.state {
		case monitor.Running:
			rec.StartedAt = ts.startedAt
			rec.Instance = ts.inst.inst.ID
			rec.Elapsed = now - ts.startedAt
			if simtime.AtOrAfter(now, ts.startedAt+ts.actualTransfer) {
				rec.TransferObserved = true
				rec.TransferTime = ts.actualTransfer
			}
		case monitor.Completed:
			rec.StartedAt = ts.startedAt
			if ts.inst != nil {
				rec.Instance = ts.inst.inst.ID
			}
			rec.CompletedAt = ts.completedAt
			rec.ExecTime = ts.actualExec
			rec.TransferObserved = true
			rec.TransferTime = ts.actualTransfer
		}
		snap.Tasks[t.ID] = rec
		if ts.state == monitor.Running || ts.state == monitor.Completed {
			obsAt := ts.startedAt + ts.actualTransfer
			if simtime.After(obsAt, lastTick) && simtime.AtOrBefore(obsAt, now) {
				snap.RecentTransfers = append(snap.RecentTransfers, ts.actualTransfer)
			}
		}
	}
	held := snap.Instances[:0]
	for _, in := range r.site.Instances() {
		if in.State == cloud.Terminated {
			continue
		}
		is := r.byID[in.ID]
		var running []dag.TaskID
		if k := len(held); k < cap(held) {
			running = held[:k+1][k].Running[:0]
		}
		running = append(running, is.running...)
		if len(running) == 0 {
			running = nil
		}
		sortTaskIDs(running)
		held = append(held, monitor.InstanceRecord{
			ID:               in.ID,
			State:            in.State,
			Slots:            in.Slots,
			RequestedAt:      in.RequestedAt,
			ActiveAt:         in.ActiveAt,
			TimeToNextCharge: in.TimeToNextCharge(now),
			Running:          running,
			Draining:         is.draining,
		})
	}
	snap.Instances = held
	if len(snap.RecentTransfers) == 0 {
		snap.RecentTransfers = nil
	}
}

func sortTaskIDs(ids []dag.TaskID) {
	for i := 1; i < len(ids); i++ {
		for j := i; j > 0 && ids[j] < ids[j-1]; j-- {
			ids[j], ids[j-1] = ids[j-1], ids[j]
		}
	}
}

// oracleController checks, before every Plan of the controller it wraps,
// that the snapshot it is shown equals the full rebuild, and counts what
// the ticks covered.
type oracleController struct {
	inner    Controller
	r        *run
	ref      monitor.Snapshot
	lastTick simtime.Time
	err      error

	ticks, transfers int
}

func (c *oracleController) Name() string { return c.inner.Name() }

func (c *oracleController) Plan(snap *monitor.Snapshot) Decision {
	referenceObserve(c.r, &c.ref, snap.Now, c.lastTick)
	c.lastTick = snap.Now
	c.ticks++
	c.transfers += len(snap.RecentTransfers)
	if c.err == nil {
		switch {
		case snap.Now != c.ref.Now || snap.Interval != c.ref.Interval || snap.Workflow != c.ref.Workflow:
			c.err = fmt.Errorf("t=%v: header differs from the full rebuild", snap.Now)
		case !reflect.DeepEqual(snap.Tasks, c.ref.Tasks):
			for i := range snap.Tasks {
				if snap.Tasks[i] != c.ref.Tasks[i] {
					c.err = fmt.Errorf("t=%v: task %d record %+v, full rebuild %+v", snap.Now, i, snap.Tasks[i], c.ref.Tasks[i])
					break
				}
			}
		case !reflect.DeepEqual(snap.Instances, c.ref.Instances):
			c.err = fmt.Errorf("t=%v: instances %+v, full rebuild %+v", snap.Now, snap.Instances, c.ref.Instances)
		case !reflect.DeepEqual(snap.RecentTransfers, c.ref.RecentTransfers):
			c.err = fmt.Errorf("t=%v: recent transfers %v, full rebuild %v", snap.Now, snap.RecentTransfers, c.ref.RecentTransfers)
		}
	}
	return c.inner.Plan(snap)
}

// churnController grows the pool toward a target and releases a busy
// instance every third tick, alternating immediate and at-boundary
// releases, so running tasks are killed and requeued throughout the run.
type churnController struct {
	target int
	tick   int

	immediate, atBoundary int // releases ordered
}

func (c *churnController) Name() string { return "churn" }

func (c *churnController) Plan(snap *monitor.Snapshot) Decision {
	c.tick++
	var dec Decision
	live := snap.NonDrainingInstances()
	if len(live) < c.target && snap.RemainingTasks() > 0 {
		dec.Launch = c.target - len(live)
	}
	if c.tick%3 == 0 && len(live) > 1 {
		for i := len(live) - 1; i >= 0; i-- {
			if len(live[i].Running) > 0 {
				ro := ReleaseOrder{Instance: live[i].ID, AtBoundary: c.tick%6 == 0}
				if ro.AtBoundary {
					c.atBoundary++
				} else {
					c.immediate++
				}
				dec.Releases = append(dec.Releases, ro)
				break
			}
		}
	}
	return dec
}

// layered builds a random layered DAG: each task depends on a random
// subset of the previous stage, with varied execution and transfer times.
func layered(rng *rand.Rand, stages, width int) *dag.Workflow {
	b := dag.NewBuilder("layered")
	var prev []dag.TaskID
	for s := 0; s < stages; s++ {
		st := b.AddStage(fmt.Sprintf("s%d", s))
		var cur []dag.TaskID
		for i := 0; i < width; i++ {
			var deps []dag.TaskID
			for _, d := range prev {
				if rng.Intn(3) == 0 {
					deps = append(deps, d)
				}
			}
			cur = append(cur, b.AddTask(st, "t", float64(rng.Intn(60)+5), float64(rng.Intn(8)), float64(rng.Intn(100)+1), deps...))
		}
		prev = cur
	}
	return b.MustBuild()
}

// runOracle runs wf under the oracle-wrapped controller and fails the test
// on the first tick whose snapshot differs from the full rebuild.
func runOracle(t *testing.T, wf *dag.Workflow, inner Controller, cfg Config) (*Result, *oracleController) {
	t.Helper()
	oc := &oracleController{inner: inner}
	r, err := newRun(wf, oc, cfg)
	if err != nil {
		t.Fatal(err)
	}
	oc.r = r
	res, err := r.execute(50_000_000)
	if err != nil {
		t.Fatal(err)
	}
	if oc.err != nil {
		t.Fatal(oc.err)
	}
	if oc.ticks == 0 {
		t.Fatal("no control tick ran")
	}
	return res, oc
}

// TestObserveMatchesFullRebuild holds the incremental observe — dirty set
// plus running tasks, live instance table — equal at every tick to the
// full rebuild across crashes, cloud faults, busy releases of both kinds,
// congestion and interference.
func TestObserveMatchesFullRebuild(t *testing.T) {
	cc := cloud.Config{SlotsPerInstance: 3, LagTime: 10, ChargingUnit: 45, MaxInstances: 8}
	noisy := func(cfg Config) Config {
		cfg.Interference = dist.Uniform{Lo: 0.5, Hi: 1.5}
		cfg.InstanceSpeed = dist.Uniform{Lo: 0.7, Hi: 1.3}
		cfg.TransferCongestion = 0.2
		cfg.MaxSimTime = 1e6
		return cfg
	}
	for seed := int64(1); seed <= 6; seed++ {
		rng := rand.New(rand.NewSource(seed))
		wf := layered(rng, 4, 15)

		t.Run(fmt.Sprintf("mtbf/seed%d", seed), func(t *testing.T) {
			res, oc := runOracle(t, wf, reactiveRelauncher{}, noisy(Config{Cloud: cc, Seed: seed, MTBF: 80}))
			if res.Failures == 0 || res.Restarts == 0 || oc.transfers == 0 {
				t.Fatalf("crashes %d, restarts %d, transfers %d: the run exercised too little", res.Failures, res.Restarts, oc.transfers)
			}
		})
		t.Run(fmt.Sprintf("faults/seed%d", seed), func(t *testing.T) {
			faults := &scriptedFaults{
				fates:  []LaunchFate{LaunchDOA, LaunchOK, LaunchDuplicated, LaunchLost, LaunchDOA},
				delays: []simtime.Duration{7, 0, 23},
			}
			res, _ := runOracle(t, wf, &churnController{target: 4}, noisy(Config{Cloud: cc, Seed: seed, Faults: faults}))
			if res.DeadOnArrival == 0 || res.Restarts == 0 {
				t.Fatalf("DOA %d, restarts %d: the run exercised too little", res.DeadOnArrival, res.Restarts)
			}
		})
		t.Run(fmt.Sprintf("churn/seed%d", seed), func(t *testing.T) {
			var killed int
			cfg := noisy(Config{Cloud: cc, Seed: seed, MTBF: 400})
			cfg.Observer = func(ev Event) {
				if ev.Kind == EvTaskKilled {
					killed++
				}
			}
			cc := &churnController{target: 5}
			runOracle(t, wf, cc, cfg)
			if killed == 0 || cc.immediate == 0 || cc.atBoundary == 0 {
				t.Fatalf("kills %d, immediate releases %d, at-boundary releases %d: the run exercised too little", killed, cc.immediate, cc.atBoundary)
			}
		})
	}
}

// TestKilledTasksEmittedInIDOrder pins the Observer stream of runs whose
// crashes kill several tasks at once: identical runs emit one stream, with
// each instance's kills in task-ID order.
func TestKilledTasksEmittedInIDOrder(t *testing.T) {
	wf := fan(40, 30, 5)
	cc := testCloud()
	cc.SlotsPerInstance = 4
	var first []Event
	for i := 0; i < 20; i++ {
		var stream []Event
		cfg := Config{Cloud: cc, Seed: 5, MTBF: 60, MaxSimTime: 1e6, Observer: func(ev Event) { stream = append(stream, ev) }}
		if _, err := Run(wf, reactiveRelauncher{}, cfg); err != nil {
			t.Fatal(err)
		}
		kills := 0
		for j, ev := range stream {
			if ev.Kind != EvTaskKilled {
				continue
			}
			kills++
			if p := stream[j-1]; p.Kind == EvTaskKilled && p.Time == ev.Time && p.Instance == ev.Instance && p.Task > ev.Task {
				t.Fatalf("run %d: task %d killed after task %d on instance %d", i, ev.Task, p.Task, ev.Instance)
			}
		}
		if kills < 2 {
			t.Fatalf("run %d: %d kills, the setup no longer kills several tasks at once", i, kills)
		}
		if i == 0 {
			first = stream
		} else if !reflect.DeepEqual(stream, first) {
			t.Fatalf("run %d emitted a different Observer stream than run 0", i)
		}
	}
}
