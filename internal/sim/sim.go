// Package sim executes a workflow DAG on a simulated elastic cloud site.
//
// It plays the role of Pegasus WMS/HTCondor plus ExoGENI in the paper: it
// dispatches ready tasks FIFO onto instance slots (with the first-five-per-
// stage priority patch, §III-C), tracks task lifecycles, publishes
// monitoring snapshots, and applies a Controller's pool decisions with the
// cloud lag. The controller — WIRE or a baseline — is a plug-in; the
// simulator is the shared substrate every policy is measured on (§IV-C3).
package sim

import (
	"fmt"
	"math/rand"
	"slices"
	"time"

	"repro/internal/cloud"
	"repro/internal/dag"
	"repro/internal/dist"
	"repro/internal/event"
	"repro/internal/monitor"
	"repro/internal/sched"
	"repro/internal/simtime"
)

// Controller plans the worker pool once per MAPE interval.
type Controller interface {
	// Name identifies the policy in reports.
	Name() string
	// Plan inspects the snapshot and returns pool-change orders that the
	// simulator applies with the cloud's lag semantics. The snapshot is
	// read-only and valid only for the duration of the call: the simulator
	// refills the same one, slices included, at every tick, rewriting only
	// the records that changed, so a controller that keeps it must keep a
	// copy (monitor.Snapshot.Clone).
	Plan(snap *monitor.Snapshot) Decision
}

// ReleaseOrder asks for one instance to be released.
type ReleaseOrder struct {
	Instance cloud.InstanceID `json:"instance"`
	// AtBoundary delays the termination to the instance's next charging
	// boundary (WIRE's no-recharge release, §III-D); otherwise the
	// release is immediate.
	AtBoundary bool `json:"at_boundary,omitempty"`
}

// Decision is a controller's plan for the next interval. The json tags
// define the stable wire format wire-serve returns from its plan endpoint.
type Decision struct {
	// Launch is the number of new instances to request now; they become
	// usable one lag later, i.e. at the start of the next interval.
	Launch int `json:"launch"`
	// Releases lists instances to drain and terminate.
	Releases []ReleaseOrder `json:"releases,omitempty"`
}

// Config parameterizes a run.
type Config struct {
	Cloud cloud.Config

	// Interval is the MAPE period; zero means use the cloud lag time
	// (§III-A sets them equal).
	Interval simtime.Duration

	// InitialInstances is the pool size requested at t=0 (default 1).
	InitialInstances int

	// Seed drives the interference sampler; runs are deterministic in it.
	Seed int64

	// Interference, when set, multiplies each task attempt's occupancy by
	// a fresh draw — the across-run/across-instance variability of §II-B.
	Interference dist.Dist

	// InstanceSpeed, when set, samples one speed factor per instance at
	// launch; every attempt on that instance divides its occupancy by
	// the factor. This models §II-B's second variability source:
	// instances of nominally one type still differ in per-core memory
	// and network bandwidth. Draws should have mean ~1.
	InstanceSpeed dist.Dist

	// TransferCongestion scales each attempt's data-transfer time by
	// (1 + TransferCongestion·(usable-1)) where usable is the pool size
	// at dispatch — a crude shared-network contention model (§III-B1
	// notes transfer times vary with the number of instances). Zero
	// disables it.
	TransferCongestion float64

	// DisableFirstFive turns off the per-stage priority boost.
	DisableFirstFive bool

	// MaxSimTime aborts runs that exceed this simulated horizon
	// (default 1e8 s) — a guard against controller deadlock.
	MaxSimTime simtime.Duration

	// MTBF, when positive, injects instance failures: each instance
	// draws an exponentially distributed lifetime with this mean at
	// launch and crashes when it expires — billing stops, its running
	// tasks are resubmitted, and the controller simply observes a
	// smaller pool at the next snapshot. Zero disables failures.
	MTBF simtime.Duration

	// Faults, when set, perturbs cloud-side order handling: the injector
	// is consulted once per controller-ordered launch (lost, duplicated,
	// or dead-on-arrival orders) and once per materialized launch for a
	// straggler activation delay. The bootstrap pool of InitialInstances
	// is exempt — it models the operator's initial provisioning, not an
	// elastic order. Injectors carry their own seeded randomness so the
	// MTBF/interference stream of Seed is untouched.
	Faults FaultInjector

	// Observer, when set, receives every lifecycle event of the run
	// (task starts/completions/kills, instance lifecycle, decisions) on
	// the simulation goroutine. Used by the trace tooling.
	Observer func(Event)
}

// LaunchFate classifies what the simulated cloud does with one launch
// order (§II-B: orders take a lag to act and do not always act faithfully).
type LaunchFate int

// Launch-order fates, consulted per controller-ordered launch.
const (
	// LaunchOK materializes the order normally.
	LaunchOK LaunchFate = iota
	// LaunchLost drops the order silently; no instance is ever created.
	LaunchLost
	// LaunchDuplicated materializes the order twice (at-least-once
	// provider semantics); the second launch still respects the site cap.
	LaunchDuplicated
	// LaunchDOA creates the instance but it never activates; one interval
	// after its nominal activation the simulator writes it off and cancels
	// it unbilled, and the controller observes the shrunken pool at the
	// next snapshot.
	LaunchDOA
)

// FaultInjector lets a fault-injection harness (internal/chaos) perturb the
// cloud side of a run. Implementations are consulted on the simulation
// goroutine only and must be deterministic for reproducible runs.
type FaultInjector interface {
	// LaunchFate is consulted once per controller-ordered launch.
	LaunchFate() LaunchFate
	// ActivationDelay is consulted once per materialized launch and
	// returns an extra straggler delay added to the nominal lag
	// (0 = activates on time). Not consulted for dead-on-arrival
	// launches, which never activate.
	ActivationDelay() simtime.Duration
}

// EventKind labels an observer notification.
type EventKind int

// Observer event kinds.
const (
	EvTaskStart EventKind = iota
	EvTaskComplete
	EvTaskKilled
	EvInstanceLaunch
	EvInstanceActive
	EvInstanceTerminated
	EvInstanceFailed
	EvDecision
	// Fault-injection events (Config.Faults).
	EvOrderLost
	EvOrderDuplicated
	EvInstanceDOA
)

// String implements fmt.Stringer.
func (k EventKind) String() string {
	switch k {
	case EvTaskStart:
		return "task-start"
	case EvTaskComplete:
		return "task-complete"
	case EvTaskKilled:
		return "task-killed"
	case EvInstanceLaunch:
		return "instance-launch"
	case EvInstanceActive:
		return "instance-active"
	case EvInstanceTerminated:
		return "instance-terminated"
	case EvInstanceFailed:
		return "instance-failed"
	case EvDecision:
		return "decision"
	case EvOrderLost:
		return "order-lost"
	case EvOrderDuplicated:
		return "order-duplicated"
	case EvInstanceDOA:
		return "instance-doa"
	default:
		return fmt.Sprintf("event(%d)", int(k))
	}
}

// Event is one observer notification. Task and Instance are -1 when not
// applicable.
type Event struct {
	Time     simtime.Time
	Kind     EventKind
	Task     dag.TaskID
	Instance cloud.InstanceID
	// Launch and Released describe EvDecision events.
	Launch   int
	Released int
}

func (c Config) interval() simtime.Duration {
	if c.Interval > 0 {
		return c.Interval
	}
	if c.Cloud.LagTime > 0 {
		return c.Cloud.LagTime
	}
	return 1
}

// TaskRun records the successful execution of one task.
type TaskRun struct {
	Task             dag.TaskID
	Stage            dag.StageID
	Instance         cloud.InstanceID
	ReadyAt          simtime.Time
	Start            simtime.Time
	End              simtime.Time
	ObservedExec     simtime.Duration
	ObservedTransfer simtime.Duration
	Restarts         int // times this task was killed before this run
}

// PoolSample is one point of the pool-size timeline.
type PoolSample struct {
	Time   simtime.Time
	Held   int
	Usable int
}

// Result summarizes a completed run.
type Result struct {
	Workflow string
	Policy   string

	Makespan       simtime.Duration
	UnitsCharged   int
	ChargedSeconds float64
	Utilization    float64

	PeakPool  int
	Launches  int
	Restarts  int
	Failures  int
	Decisions int

	// Fault-injection outcomes (zero without Config.Faults; Failures
	// above counts MTBF crashes of active instances).
	OrdersLost       int // launch orders dropped before reaching the site
	OrdersDuplicated int // launch orders materialized twice
	DeadOnArrival    int // launches that never activated and were written off

	// ControllerWall is the real CPU-wall time spent inside Plan calls:
	// the paper's controller-overhead metric (§IV-F).
	ControllerWall time.Duration

	TaskRuns []TaskRun
	Pool     []PoolSample
}

// run is the mutable state of one simulation.
type run struct {
	wf   *dag.Workflow
	ctrl Controller
	cfg  Config

	eng   *event.Engine
	site  *cloud.Site
	queue *sched.Queue
	rng   *rand.Rand

	tasks []taskState
	// byID holds every instance ever launched, indexed by ID (the site
	// numbers launches 0, 1, 2, ...); live holds the ones not yet
	// terminated, in ID order. Dispatch, pool sampling and observe walk
	// live, so their cost follows the pool, not its history.
	byID []*instState
	live []*instState

	// dirty lists the tasks readied, started, completed or killed since the
	// last control tick, each once (touched marks membership): together
	// with the running tasks, the only records observe has to refill.
	dirty   []dag.TaskID
	touched []bool

	completed int
	lastTick  simtime.Time
	done      bool
	doneAt    simtime.Time
	err       error

	res      *Result
	nextTick *event.Event

	// snap is the snapshot every control tick refills and shows the
	// controller (see Controller for its lifetime).
	snap monitor.Snapshot
}

type taskState struct {
	state    monitor.TaskState
	waiting  int // unmet dependencies
	readyAt  simtime.Time
	priority bool

	// Fields of the current/last attempt.
	startedAt      simtime.Time
	inst           *instState
	attemptDur     simtime.Duration // sampled total occupancy
	actualTransfer simtime.Duration
	actualExec     simtime.Duration
	completeEv     *event.Event

	restarts    int
	completedAt simtime.Time
}

type instState struct {
	inst *cloud.Instance
	// running lists the tasks occupying the instance's slots in task-ID
	// order, the order the snapshot publishes and a kill requeues them in.
	running  []dag.TaskID
	draining bool
	termEv   *event.Event
	speed    float64
}

func (is *instState) freeSlots() int { return is.inst.Slots - len(is.running) }

// Run executes the workflow to completion under the controller and returns
// the run summary. It returns an error for invalid configuration, controller
// protocol violations, or a run exceeding the simulation horizon.
func Run(wf *dag.Workflow, ctrl Controller, cfg Config) (*Result, error) {
	return runWithBudget(wf, ctrl, cfg, 50_000_000)
}

func runWithBudget(wf *dag.Workflow, ctrl Controller, cfg Config, maxEvents uint64) (*Result, error) {
	r, err := newRun(wf, ctrl, cfg)
	if err != nil {
		return nil, err
	}
	return r.execute(maxEvents)
}

// newRun validates the configuration and builds the run at t=0: roots
// ready, bootstrap pool launched, first control tick scheduled.
func newRun(wf *dag.Workflow, ctrl Controller, cfg Config) (*run, error) {
	if err := cfg.Cloud.Validate(); err != nil {
		return nil, err
	}
	if err := wf.Validate(); err != nil {
		return nil, err
	}
	if cfg.InitialInstances <= 0 {
		cfg.InitialInstances = 1
	}
	if cfg.MaxSimTime <= 0 {
		cfg.MaxSimTime = 1e8
	}

	boost := sched.PriorityTasksPerStage
	if cfg.DisableFirstFive {
		boost = 0
	}

	site, err := cloud.NewSite(cfg.Cloud)
	if err != nil {
		return nil, err
	}
	r := &run{
		wf:      wf,
		ctrl:    ctrl,
		cfg:     cfg,
		eng:     event.New(),
		site:    site,
		queue:   sched.NewQueue(sched.WithBoost(boost)),
		rng:     rand.New(rand.NewSource(cfg.Seed)),
		tasks:   make([]taskState, wf.NumTasks()),
		touched: make([]bool, wf.NumTasks()),
		res: &Result{
			Workflow: wf.Name,
			Policy:   ctrl.Name(),
			TaskRuns: make([]TaskRun, 0, wf.NumTasks()),
		},
	}

	// Initial dependency counts and root readiness.
	for _, t := range wf.Tasks {
		r.tasks[t.ID].waiting = len(t.Deps)
		r.tasks[t.ID].state = monitor.Blocked
	}
	for _, id := range wf.Roots() {
		r.markReady(id, 0)
	}

	// Initial pool.
	for i := 0; i < cfg.InitialInstances; i++ {
		if _, err := r.launch(0); err != nil {
			return nil, fmt.Errorf("sim: initial pool: %w", err)
		}
	}
	r.samplePool(0)

	// First control tick one interval in; pool changes it orders become
	// effective at the start of the following interval (§III-A).
	iv := cfg.interval()
	r.nextTick = r.eng.At(iv, event.PriControl, "control", r.controlTick)
	return r, nil
}

// execute runs the simulation to completion, firing at most maxEvents
// events.
func (r *run) execute(maxEvents uint64) (*Result, error) {
	wf, cfg, site := r.wf, r.cfg, r.site
	r.eng.MaxEvents = maxEvents
	if err := r.eng.RunUntil(cfg.MaxSimTime); err != nil {
		return nil, err
	}
	if r.err != nil {
		return nil, r.err
	}
	if !r.done {
		return nil, fmt.Errorf("sim: %s/%s exceeded horizon %v with %d/%d tasks done",
			wf.Name, r.ctrl.Name(), cfg.MaxSimTime, r.completed, wf.NumTasks())
	}

	r.res.Makespan = r.doneAt
	r.res.UnitsCharged = site.TotalUnitsCharged(r.doneAt)
	r.res.ChargedSeconds = site.TotalChargedSeconds(r.doneAt)
	r.res.Utilization = site.Utilization(r.doneAt)
	return r.res, nil
}

func (r *run) emit(ev Event) {
	if r.cfg.Observer != nil {
		r.cfg.Observer(ev)
	}
}

func (r *run) fail(err error) {
	if r.err == nil {
		r.err = err
	}
	// Drain: cancel the tick chain so the engine stops.
	if r.nextTick != nil {
		r.eng.Cancel(r.nextTick)
	}
}

// launch materializes a bootstrap launch, exempt from fault injection.
func (r *run) launch(now simtime.Time) (*instState, error) {
	return r.launchFated(now, false, false)
}

// launchFated materializes one launch. A dead-on-arrival launch holds a
// pending slot, never activates, and is written off (canceled unbilled)
// one interval after its nominal activation time. Only elastic (controller-
// ordered) launches consult the straggler injector.
func (r *run) launchFated(now simtime.Time, doa, elastic bool) (*instState, error) {
	in, err := r.site.Launch(now)
	if err != nil {
		return nil, err
	}
	if elastic && !doa && r.cfg.Faults != nil {
		if extra := r.cfg.Faults.ActivationDelay(); extra > 0 {
			if err := r.site.Postpone(in, in.ActiveAt+extra); err != nil {
				return nil, err
			}
		}
	}
	r.emit(Event{Time: now, Kind: EvInstanceLaunch, Task: -1, Instance: in.ID})
	is := &instState{inst: in, running: make([]dag.TaskID, 0, in.Slots), speed: 1}
	if r.cfg.InstanceSpeed != nil {
		if s := r.cfg.InstanceSpeed.Sample(r.rng); s > 0.01 {
			is.speed = s
		} else {
			is.speed = 0.01
		}
	}
	r.byID = append(r.byID, is)
	r.live = append(r.live, is)
	r.res.Launches++
	if held := r.site.Held(); held > r.res.PeakPool {
		r.res.PeakPool = held
	}
	if doa {
		r.eng.At(in.ActiveAt+r.cfg.interval(), event.PriInstance, "doa-writeoff", func(_ *event.Engine, t simtime.Time) {
			if is.inst.State != cloud.Pending {
				return // run finished first; finish() already canceled it
			}
			r.res.DeadOnArrival++
			r.emit(Event{Time: t, Kind: EvInstanceDOA, Task: -1, Instance: is.inst.ID})
			if err := r.retire(is, t); err != nil {
				r.fail(err)
				return
			}
			r.samplePool(t)
		})
		return is, nil
	}
	r.eng.At(in.ActiveAt, event.PriInstance, "activate", func(_ *event.Engine, t simtime.Time) {
		if is.inst.State != cloud.Pending {
			return // canceled while pending
		}
		if err := r.site.Activate(is.inst, t); err != nil {
			r.fail(err)
			return
		}
		r.emit(Event{Time: t, Kind: EvInstanceActive, Task: -1, Instance: is.inst.ID})
		r.dispatch(t)
	})
	if r.cfg.MTBF > 0 {
		// Draw the lifetime now so the rng consumption order stays
		// deterministic regardless of later event interleavings.
		life := r.rng.ExpFloat64() * r.cfg.MTBF
		r.eng.At(in.ActiveAt+life, event.PriTerminate, "failure", func(_ *event.Engine, t simtime.Time) {
			if is.inst.State != cloud.Active {
				return // already gone
			}
			r.res.Failures++
			r.emit(Event{Time: t, Kind: EvInstanceFailed, Task: -1, Instance: is.inst.ID})
			r.terminate(is, t)
		})
	}
	return is, nil
}

// retire terminates is at the site and drops it from the live table.
func (r *run) retire(is *instState, now simtime.Time) error {
	if err := r.site.Terminate(is.inst, now); err != nil {
		return err
	}
	i := slices.Index(r.live, is)
	r.live = slices.Delete(r.live, i, i+1)
	return nil
}

// touch adds a task whose record changed to the dirty set.
func (r *run) touch(id dag.TaskID) {
	if !r.touched[id] {
		r.touched[id] = true
		r.dirty = append(r.dirty, id)
	}
}

func (r *run) markReady(id dag.TaskID, now simtime.Time) {
	r.touch(id)
	ts := &r.tasks[id]
	ts.state = monitor.Ready
	ts.readyAt = now
	t := r.wf.Task(id)
	r.queue.Push(id, t.Stage, now)
}

// dispatch assigns ready tasks to free slots of usable, non-draining
// instances, lowest instance ID first.
func (r *run) dispatch(now simtime.Time) {
	if r.done || r.err != nil {
		return
	}
	for r.queue.Len() > 0 {
		is := r.pickInstance(now)
		if is == nil {
			return
		}
		it, _ := r.queue.Pop()
		r.start(it.Task, is, now, it.Priority)
	}
}

// pickInstance returns the lowest-ID usable, non-draining instance with a
// free slot, or nil.
func (r *run) pickInstance(now simtime.Time) *instState {
	for _, is := range r.live {
		if !is.draining && is.freeSlots() > 0 && is.inst.State == cloud.Active && is.inst.UsableAt(now) {
			return is
		}
	}
	return nil
}

// usable counts the active instances usable at now.
func (r *run) usable(now simtime.Time) int {
	n := 0
	for _, is := range r.live {
		if is.inst.State == cloud.Active && is.inst.UsableAt(now) {
			n++
		}
	}
	return n
}

func (r *run) start(id dag.TaskID, is *instState, now simtime.Time, priority bool) {
	r.touch(id)
	ts := &r.tasks[id]
	t := r.wf.Task(id)

	factor := 1.0
	if r.cfg.Interference != nil {
		factor = r.cfg.Interference.Sample(r.rng)
		if factor <= 0 {
			factor = 0.01
		}
	}
	factor /= is.speed
	congestion := 1.0
	if r.cfg.TransferCongestion > 0 {
		if usable := r.usable(now); usable > 1 {
			congestion += r.cfg.TransferCongestion * float64(usable-1)
		}
	}
	ts.state = monitor.Running
	ts.priority = priority
	ts.startedAt = now
	ts.inst = is
	ts.actualTransfer = t.TransferTime * factor * congestion
	ts.actualExec = t.ExecTime * factor
	ts.attemptDur = ts.actualTransfer + ts.actualExec
	i, _ := slices.BinarySearch(is.running, id)
	is.running = slices.Insert(is.running, i, id)

	r.emit(Event{Time: now, Kind: EvTaskStart, Task: id, Instance: is.inst.ID})

	ts.completeEv = r.eng.At(now+ts.attemptDur, event.PriTask, "complete", func(_ *event.Engine, tm simtime.Time) {
		r.complete(id, tm)
	})
}

func (r *run) complete(id dag.TaskID, now simtime.Time) {
	r.touch(id)
	ts := &r.tasks[id]
	is := ts.inst
	ts.state = monitor.Completed
	ts.completedAt = now
	i, _ := slices.BinarySearch(is.running, id)
	is.running = slices.Delete(is.running, i, i+1)
	is.inst.BusySlotSeconds += ts.attemptDur
	r.completed++
	r.emit(Event{Time: now, Kind: EvTaskComplete, Task: id, Instance: is.inst.ID})

	t := r.wf.Task(id)
	r.res.TaskRuns = append(r.res.TaskRuns, TaskRun{
		Task:             id,
		Stage:            t.Stage,
		Instance:         is.inst.ID,
		ReadyAt:          ts.readyAt,
		Start:            ts.startedAt,
		End:              now,
		ObservedExec:     ts.actualExec,
		ObservedTransfer: ts.actualTransfer,
		Restarts:         ts.restarts,
	})

	for _, s := range t.Succs {
		ss := &r.tasks[s]
		ss.waiting--
		if ss.waiting == 0 {
			r.markReady(s, now)
		}
	}

	if r.completed == r.wf.NumTasks() {
		r.finish(now)
		return
	}
	r.dispatch(now)
}

func (r *run) finish(now simtime.Time) {
	r.done = true
	r.doneAt = now
	if r.nextTick != nil {
		r.eng.Cancel(r.nextTick)
	}
	for _, is := range r.byID {
		if is.termEv != nil {
			r.eng.Cancel(is.termEv)
		}
	}
	for _, is := range r.live {
		if err := r.site.Terminate(is.inst, now); err != nil {
			r.fail(err)
		}
		r.emit(Event{Time: now, Kind: EvInstanceTerminated, Task: -1, Instance: is.inst.ID})
	}
	r.live = r.live[:0]
	r.samplePool(now)
}

// terminate kills an instance, requeueing its running tasks in task-ID
// order.
func (r *run) terminate(is *instState, now simtime.Time) {
	if is.inst.State == cloud.Terminated {
		return
	}
	for _, id := range is.running {
		r.touch(id)
		ts := &r.tasks[id]
		r.eng.Cancel(ts.completeEv)
		is.inst.BusySlotSeconds += now - ts.startedAt
		ts.restarts++
		r.res.Restarts++
		ts.state = monitor.Ready
		ts.readyAt = now
		ts.inst = nil
		t := r.wf.Task(id)
		r.queue.Requeue(id, t.Stage, now, ts.priority)
		r.emit(Event{Time: now, Kind: EvTaskKilled, Task: id, Instance: is.inst.ID})
	}
	is.running = is.running[:0]
	if err := r.retire(is, now); err != nil {
		r.fail(err)
		return
	}
	r.emit(Event{Time: now, Kind: EvInstanceTerminated, Task: -1, Instance: is.inst.ID})
	r.samplePool(now)
	r.dispatch(now)
}

func (r *run) samplePool(now simtime.Time) {
	s := PoolSample{
		Time:   now,
		Held:   r.site.Held(),
		Usable: r.usable(now),
	}
	// Record only changes (plus the first sample) — long runs tick many
	// thousands of times with a steady pool.
	if n := len(r.res.Pool); n > 0 {
		last := r.res.Pool[n-1]
		if last.Held == s.Held && last.Usable == s.Usable {
			return
		}
	}
	r.res.Pool = append(r.res.Pool, s)
}

func (r *run) controlTick(_ *event.Engine, now simtime.Time) {
	if r.done || r.err != nil {
		return
	}
	iv := r.cfg.interval()
	r.nextTick = r.eng.At(now+iv, event.PriControl, "control", r.controlTick)

	snap := r.observe(now)
	r.lastTick = now

	wallStart := time.Now()
	dec := r.ctrl.Plan(snap)
	r.res.ControllerWall += time.Since(wallStart)
	r.res.Decisions++
	r.emit(Event{Time: now, Kind: EvDecision, Task: -1, Instance: -1, Launch: dec.Launch, Released: len(dec.Releases)})

	if err := r.apply(dec, now); err != nil {
		r.fail(err)
	}
}

func (r *run) apply(dec Decision, now simtime.Time) error {
	if dec.Launch < 0 {
		return fmt.Errorf("sim: controller %s requested negative launch %d", r.ctrl.Name(), dec.Launch)
	}
	for i := 0; i < dec.Launch; i++ {
		fate := LaunchOK
		if r.cfg.Faults != nil {
			fate = r.cfg.Faults.LaunchFate()
		}
		switch fate {
		case LaunchLost:
			r.res.OrdersLost++
			r.emit(Event{Time: now, Kind: EvOrderLost, Task: -1, Instance: -1})
			continue
		case LaunchDuplicated:
			r.res.OrdersDuplicated++
			r.emit(Event{Time: now, Kind: EvOrderDuplicated, Task: -1, Instance: -1})
			// The duplicate is best-effort at the cap, like the order.
			for n := 0; n < 2; n++ {
				if _, err := r.launchFated(now, false, true); err != nil {
					if err == cloud.ErrSiteFull {
						break
					}
					return err
				}
			}
			continue
		}
		if _, err := r.launchFated(now, fate == LaunchDOA, true); err != nil {
			if err == cloud.ErrSiteFull {
				break // best effort at the cap
			}
			return err
		}
	}
	for _, ro := range dec.Releases {
		if ro.Instance < 0 || int(ro.Instance) >= len(r.byID) {
			return fmt.Errorf("sim: controller %s released unknown instance %d", r.ctrl.Name(), ro.Instance)
		}
		is := r.byID[ro.Instance]
		if is.inst.State == cloud.Terminated {
			return fmt.Errorf("sim: controller %s released terminated instance %d", r.ctrl.Name(), ro.Instance)
		}
		if is.draining {
			continue
		}
		is.draining = true
		at := now
		if ro.AtBoundary && is.inst.State == cloud.Active {
			at = is.inst.NextChargeBoundary(now)
		}
		if simtime.AtOrBefore(at, now) {
			r.terminate(is, now)
			continue
		}
		is.termEv = r.eng.At(at, event.PriTerminate, "terminate", func(_ *event.Engine, t simtime.Time) {
			r.terminate(is, t)
		})
	}
	r.samplePool(now)
	// Newly freed capacity (immediate releases free nothing, but launches
	// don't either until active); still, draining changes assignment
	// eligibility only, so no dispatch needed here.
	return nil
}

// observe refills the run's snapshot with the monitoring view at time now.
// The first tick fills every task record; later ticks refill only the
// dirty set and the running tasks, the only records that can have changed.
// Instance records and their running lists are reused. An empty list is
// published nil, as a freshly built snapshot had it.
func (r *run) observe(now simtime.Time) *monitor.Snapshot {
	snap := &r.snap
	snap.Now = now
	snap.Interval = r.cfg.interval()
	snap.ChargingUnit = r.cfg.Cloud.ChargingUnit
	snap.LagTime = r.cfg.Cloud.LagTime
	snap.SlotsPerInstance = r.cfg.Cloud.SlotsPerInstance
	snap.MaxInstances = r.cfg.Cloud.MaxInstances
	snap.Workflow = r.wf
	if len(snap.Tasks) != r.wf.NumTasks() {
		snap.Tasks = make([]monitor.TaskRecord, r.wf.NumTasks())
		for _, t := range r.wf.Tasks {
			r.fillRecord(t.ID, now)
		}
	}
	for _, is := range r.live {
		for _, id := range is.running {
			r.touch(id)
		}
	}
	// Task-ID order, the order RecentTransfers is published in.
	slices.Sort(r.dirty)
	snap.RecentTransfers = snap.RecentTransfers[:0]
	for _, id := range r.dirty {
		r.touched[id] = false
		r.fillRecord(id, now)
		// Transfers whose completion fell inside the last interval. A
		// task untouched since the last tick completed before it, so its
		// transfer did too.
		ts := &r.tasks[id]
		if ts.state == monitor.Running || ts.state == monitor.Completed {
			obsAt := ts.startedAt + ts.actualTransfer
			if simtime.After(obsAt, r.lastTick) && simtime.AtOrBefore(obsAt, now) {
				snap.RecentTransfers = append(snap.RecentTransfers, ts.actualTransfer)
			}
		}
	}
	r.dirty = r.dirty[:0]
	held := snap.Instances[:0]
	for _, is := range r.live {
		in := is.inst
		var running []dag.TaskID
		if k := len(held); k < cap(held) {
			running = held[:k+1][k].Running[:0]
		}
		running = append(running, is.running...)
		if len(running) == 0 {
			running = nil
		}
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
	return snap
}

// fillRecord rewrites task id's snapshot record from its state at now.
func (r *run) fillRecord(id dag.TaskID, now simtime.Time) {
	t := r.wf.Task(id)
	ts := &r.tasks[id]
	// Zeroed and filled in place: a record built in a temporary costs a
	// copy of the whole record.
	rec := &r.snap.Tasks[id]
	*rec = monitor.TaskRecord{}
	rec.ID, rec.Stage, rec.State = t.ID, t.Stage, ts.state
	rec.InputSize, rec.ReadyAt = t.InputSize, ts.readyAt
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
}
