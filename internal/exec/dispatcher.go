package exec

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"sort"
	"sync"
	"time"

	"repro/internal/cloud"
	"repro/internal/dag"
	"repro/internal/monitor"
	"repro/internal/predict"
	"repro/internal/sched"
	"repro/internal/sim"
	"repro/internal/simtime"
	"repro/internal/wal"
)

// Errors returned by the dispatcher's protocol methods.
var (
	// ErrUnknownAgent: the agent ID is not registered (or was failed and
	// removed). Agents re-register on this error.
	ErrUnknownAgent = errors.New("exec: unknown agent")
	// ErrRunOver: the run already finished; no new registrations.
	ErrRunOver = errors.New("exec: run is over")
)

// leaseState tracks one lease through its lifecycle.
type leaseState int

const (
	leaseActive leaseState = iota
	leaseCompleted
	leaseReclaimed
	// leaseSuperseded: retired because the task's other copy won the race
	// (speculation) or because this copy's agent vanished while a healthy
	// duplicate survived. The task is NOT requeued — it still runs.
	leaseSuperseded
)

// lease is one granted task execution.
type lease struct {
	id    int64
	task  dag.TaskID
	agent *agentState
	// inst is the instance the agent was bound to at the grant — where the
	// lease's occupancy is credited even after the agent has failed off it.
	inst      *instRec
	state     leaseState
	grantedAt simtime.Time
	deadline  time.Time
	delivered bool
	// spec marks a speculative straggler duplicate; attempt is the task's
	// execution attempt number carried on the wire for chaos determinism.
	spec    bool
	attempt int
}

// agentState is one registered worker process.
type agentState struct {
	id       string
	name     string
	slots    int
	lastSeen time.Time
	inst     *instRec // nil while parked
	leases   map[int64]*lease
	gone     bool
}

func (a *agentState) status() string {
	switch {
	case a.gone:
		return "gone"
	case a.inst == nil:
		return "parked"
	case a.inst.draining:
		return "draining"
	case a.inst.inst.State == cloud.Active:
		return "active"
	default:
		return "pending"
	}
}

// capacity is how many concurrent leases the agent's instance may hold: the
// site's slots-per-instance, further limited by what the agent advertises.
func (a *agentState) capacity() int {
	if a.inst == nil {
		return 0
	}
	c := a.inst.inst.Slots
	if a.slots < c {
		c = a.slots
	}
	return c
}

// instRec is one logical cloud instance and its agent binding.
type instRec struct {
	inst  *cloud.Instance
	agent *agentState // nil while unbound
	// draining and releaseAt are a controller release order not yet carried
	// out: no new leases, release at that instant (a charging boundary, or
	// the decision's own instant).
	draining  bool
	releaseAt simtime.Time
}

// taskState mirrors the simulator's per-task bookkeeping, fed by measured
// agent reports instead of sampled ground truth.
type taskState struct {
	state    monitor.TaskState
	waiting  int
	readyAt  simtime.Time
	priority bool

	startedAt simtime.Time
	agent     string
	instance  cloud.InstanceID
	leaseID   int64

	transferObserved   bool
	transferTime       simtime.Duration
	transferObservedAt simtime.Time
	execTime           simtime.Duration
	completedAt        simtime.Time

	restarts int

	// specLease is the task's speculative duplicate lease (0 when none);
	// leaseID above always names the primary copy.
	specLease int64
	// failedAttempts counts failed executions (crash reports + reclaims)
	// against Config.MaxTaskAttempts.
	failedAttempts int
	// pendingRequeue is set between a failed attempt and the task's
	// backoff-delayed return to the ready queue, which is due at requeueAt.
	pendingRequeue bool
	requeueAt      time.Time
}

// LiveResult summarizes a finished live run with the simulator's metrics
// vocabulary, plus the live plane's own accounting.
type LiveResult struct {
	Workflow string `json:"workflow"`
	Policy   string `json:"policy"`

	MakespanS      simtime.Duration `json:"makespan_s"`
	UnitsCharged   int              `json:"units_charged"`
	ChargedSeconds float64          `json:"charged_seconds"`
	Utilization    float64          `json:"utilization"`

	PeakPool      int `json:"peak_pool"`
	Launches      int `json:"launches"`
	Restarts      int `json:"restarts"`
	Failures      int `json:"failures"`
	Decisions     int `json:"decisions"`
	DeadOnArrival int `json:"dead_on_arrival,omitempty"`

	Timescale     float64  `json:"timescale"`
	WallElapsedMs int64    `json:"wall_elapsed_ms"`
	Counters      Counters `json:"counters"`

	// Degraded marks a run that finished with tasks quarantined (poison
	// tasks that exhausted their attempt budget) and therefore skipped
	// their unreachable descendants.
	Degraded         bool `json:"degraded,omitempty"`
	QuarantinedTasks int  `json:"quarantined_tasks,omitempty"`
	UnreachableTasks int  `json:"unreachable_tasks,omitempty"`
}

// agentHealth scores one worker by name (names survive re-registration, so a
// flaky process that reconnects keeps its record). An agent whose failure
// events reach the configured threshold at the configured ratio is
// blacklisted — no new leases — until the cooldown elapses.
type agentHealth struct {
	completions int64
	failures    int64
	// benched records that the worker was ever blacklisted; the window it
	// serves is wall-clock state, reopened in full after a recovery.
	benched          bool
	blacklistedUntil time.Time
}

// Dispatcher owns one live workflow run: the ready queue, the lease table,
// the agent registry, the billing site on the scaled wall clock, and the
// MAPE control loop. All state is guarded by one mutex. Every timed
// transition is a due instant stored on the state it belongs to, and one wake
// timer fires them all (wakeLocked), so a late or duplicate firing is harmless.
type Dispatcher struct {
	cfg   Config
	wf    *dag.Workflow
	clock *cloud.ScaledClock
	site  *cloud.Site

	mu      sync.Mutex
	state   RunState
	runErr  error
	queue   *sched.Queue
	tasks   []taskState
	agents  map[string]*agentState
	insts   map[cloud.InstanceID]*instRec
	leases  map[int64]*lease
	waiters []chan struct{}
	health  map[string]*agentHealth
	// unreach holds quarantined tasks plus their transitive successors:
	// work the run will never execute. The finish condition becomes
	// completed + |unreach| == NumTasks, so a poisoned run still ends.
	unreach map[dag.TaskID]bool
	// pred is the speculation predictor (nil unless SpeculationFactor>0):
	// the paper's online occupancy estimators, fed the same snapshots the
	// controller sees, deciding when a running lease counts as a straggler.
	pred *predict.Predictor

	agentSeq int
	leaseSeq int64
	// recSeq, lastMs and lastNow are the journal's high-water marks, startMs
	// the run-started record's wall offset: where a recovered run picks its
	// sequence, its wall origin and its simulated clock back up.
	recSeq    int64
	lastMs    int64
	startMs   int64
	lastNow   simtime.Time
	completed int
	restarts  int
	failures  int
	peakPool  int
	launches  int
	decisions int
	lastTick  simtime.Time
	tickSeq   int
	counters  Counters
	records   []PlanRecord
	result    *LiveResult
	draining  bool

	createdWall time.Time
	startWall   time.Time
	doneAt      simtime.Time

	// horizon is the wall instant the run fails at, nextReap the next
	// heartbeat sweep. wakeAt is the instant the wake timer is armed for and
	// stopWake cancels it (nil when none is armed).
	horizon  time.Time
	nextReap time.Time
	wakeAt   time.Time
	stopWake func() bool
	done     chan struct{}
}

// NewDispatcher builds a run in the Created state: agents may register, the
// clock starts on Start.
func NewDispatcher(cfg Config) (*Dispatcher, error) {
	cfg, err := cfg.withDefaults()
	if err != nil {
		return nil, err
	}
	clock, err := cloud.NewScaledClock(cfg.Timescale, cfg.now)
	if err != nil {
		return nil, err
	}
	site, err := cloud.NewSite(cfg.Cloud)
	if err != nil {
		return nil, err
	}
	d := &Dispatcher{
		cfg:         cfg,
		wf:          cfg.Workflow,
		clock:       clock,
		site:        site,
		queue:       sched.NewQueue(),
		tasks:       make([]taskState, cfg.Workflow.NumTasks()),
		agents:      make(map[string]*agentState),
		insts:       make(map[cloud.InstanceID]*instRec),
		leases:      make(map[int64]*lease),
		health:      make(map[string]*agentHealth),
		unreach:     make(map[dag.TaskID]bool),
		createdWall: cfg.now(),
		done:        make(chan struct{}),
	}
	if cfg.SpeculationFactor > 0 {
		d.pred = predict.New(predict.Config{})
	}
	if cfg.Journal != nil && len(cfg.Spec) > 0 {
		d.commitLocked(Record{Kind: RecRunCreated, Detail: cfg.Workflow.Name, Spec: cfg.Spec, WorkflowDigest: cfg.workflowDigest})
	}
	d.initTasks()
	return d, nil
}

// Workflow returns the run's DAG.
func (d *Dispatcher) Workflow() *dag.Workflow { return d.wf }

// Config returns the effective (defaulted) configuration.
func (d *Dispatcher) Config() Config { return d.cfg }

// commitLocked is the one way a live call changes journaled state: stamp the
// record, fold it into the run with apply, append it to the journal. The
// caller has already decided what happens (which agent, which task, which
// instant) and afterwards adds what no record carries: timers, wake-ups and
// log lines. A record apply rejects means the decision was made
// against state the dispatcher does not hold — a bug; the run fails, nothing
// is journaled, and commitLocked reports false.
func (d *Dispatcher) commitLocked(r Record) bool {
	r.Seq = d.recSeq + 1
	r.WallMs = d.cfg.now().Sub(d.createdWall).Milliseconds()
	if err := d.apply(r); err != nil {
		d.failLocked(fmt.Errorf("exec: %s record %d: %w", r.Kind, r.Seq, err))
		return false
	}
	d.journalLocked(r)
	return true
}

func (d *Dispatcher) journalLocked(r Record) {
	if d.cfg.Journal == nil {
		return
	}
	err := d.cfg.Journal.Append(r)
	if err == nil {
		return
	}
	// Recovery rebuilds leases, retry budgets and billing from this file, so
	// a record that did not reach it is reported, never dropped in silence.
	d.counters.JournalErrors++
	if d.counters.JournalErrors == 1 {
		d.cfg.Logf("exec: journal append failed at record %d (%s): %v", r.Seq, r.Kind, err)
	}
	if errors.Is(err, wal.ErrBroken) {
		// The file can no longer be kept a run of whole records; the run
		// carries on in memory, like one whose journal never opened.
		d.cfg.Logf("exec: journal detached at record %d: %v", r.Seq, err)
		d.cfg.Journal = nil
	}
}

// notifyLocked wakes every parked long-poll.
func (d *Dispatcher) notifyLocked() {
	for _, ch := range d.waiters {
		close(ch)
	}
	d.waiters = nil
}

// Start anchors the scaled clock, orders the bootstrap pool, and arms the
// control loop. Idempotent; an already finished run returns ErrRunOver.
func (d *Dispatcher) Start() error {
	d.mu.Lock()
	defer d.mu.Unlock()
	switch d.state {
	case Running:
		return nil
	case Done, Failed:
		return ErrRunOver
	}
	d.clock.Start()
	d.startWall = d.cfg.now()
	d.commitLocked(Record{Kind: RecRunStarted, Detail: d.wf.Name})

	for i := 0; i < d.cfg.InitialInstances; i++ {
		if err := d.launchLocked(0); err != nil {
			d.failLocked(fmt.Errorf("exec: initial pool: %w", err))
			return d.runErr
		}
	}
	d.bindAgentsLocked()

	d.tickSeq = 1
	d.horizon = d.startWall.Add(d.cfg.MaxWall)
	d.nextReap = d.startWall.Add(d.reapEvery())
	d.wakeLocked()
	return nil
}

// reapEvery is the heartbeat reaper's cadence.
func (d *Dispatcher) reapEvery() time.Duration {
	return max(d.cfg.HeartbeatTTL/2, 50*time.Millisecond)
}

// tickAt is the simulated instant the next control tick is due.
func (d *Dispatcher) tickAt() simtime.Time {
	return simtime.Time(d.tickSeq) * simtime.Time(d.cfg.Interval)
}

// nextTickSeq is the sequence number of the first control tick due strictly
// after simulated instant now. A late wake and a resumed run both plan once,
// on the current state, and skip the periods they missed (DESIGN §6 row 2).
func (d *Dispatcher) nextTickSeq(now simtime.Time) int {
	return int(float64(now)/float64(d.cfg.Interval)) + 1
}

// simDue reports whether a simulated instant has come.
func (d *Dispatcher) simDue(at simtime.Time) bool { return d.clock.WallUntil(at) == 0 }

// wakeLocked is the only code that fires the run's timed transitions. Each
// is a due instant on the state it belongs to. Everything due fires in one
// fixed order, each kind by ascending id, and the wake timer is then armed
// for the earliest instant that remains:
//
//  1. the wall horizon (horizon);
//  2. the control tick (tickSeq × Interval): one per wake, however many
//     intervals have passed;
//  3. activations (ActiveAt of a bound pending instance), then DOA
//     write-offs (ActiveAt + doaGrace of a pending instance no agent bound);
//  4. releases (releaseAt of a draining instance);
//  5. lease expiries (lease.deadline);
//  6. backoff requeues (taskState.requeueAt);
//  7. the heartbeat reaper (nextReap).
func (d *Dispatcher) wakeLocked() {
	if d.state != Running {
		return
	}
	if !d.cfg.now().Before(d.horizon) {
		d.failLocked(fmt.Errorf("exec: run exceeded wall horizon %v with %d/%d tasks done",
			d.cfg.MaxWall, d.completed, d.wf.NumTasks()))
		return
	}
	if d.simDue(d.tickAt()) {
		d.tickLocked()
	}
	// Activations, then DOA write-offs: a write-off is for a launch that
	// never bound an agent, and a bound one has just activated. A draining
	// instance is due to be released instead.
	insts := d.site.Instances()
	awaiting := func(in *cloud.Instance, bound bool) bool {
		ir := d.insts[in.ID]
		return d.state == Running && in.State == cloud.Pending && !ir.draining && (ir.agent != nil) == bound
	}
	for _, in := range insts {
		if awaiting(in, true) && d.simDue(in.ActiveAt) {
			d.activateLocked(d.insts[in.ID])
			d.dispatchLocked()
			d.notifyLocked()
		}
	}
	for _, in := range insts {
		if awaiting(in, false) && d.simDue(in.ActiveAt+d.cfg.doaGrace) {
			now := d.clock.Now()
			d.commitLocked(Record{Kind: RecInstanceDOA, NowS: now, Instance: intPtr(int(in.ID))})
		}
	}
	for _, in := range insts {
		if ir := d.insts[in.ID]; d.state == Running && ir.draining && d.simDue(ir.releaseAt) {
			d.releaseLocked(ir, d.clock.Now())
		}
	}
	wall := d.cfg.now()
	for _, l := range sortedLeases(d.leases) {
		// An agent that still holds an expired lease is declared failed and
		// everything it leased is reclaimed.
		if d.state == Running && l.state == leaseActive && !wall.Before(l.deadline) {
			d.cfg.Logf("exec: lease %d (task %d) expired on agent %s", l.id, l.task, l.agent.id)
			d.failAgentLocked(l.agent, "lease-expired")
		}
	}
	for i := range d.tasks {
		if ts := &d.tasks[i]; d.state == Running && ts.pendingRequeue && ts.state == monitor.Ready && !wall.Before(ts.requeueAt) {
			d.requeueLocked(dag.TaskID(i), d.clock.Now())
			d.dispatchLocked()
			d.notifyLocked()
		}
	}
	if d.state == Running && !wall.Before(d.nextReap) {
		d.reapLocked()
		d.nextReap = d.cfg.now().Add(d.reapEvery())
	}
	if d.state == Running {
		d.armWakeLocked(d.nextDueLocked())
	}
}

// nextDueLocked returns the wall time until the earliest instant wakeLocked
// would fire.
func (d *Dispatcher) nextDueLocked() time.Duration {
	wall := d.cfg.now()
	next := d.horizon.Sub(wall)
	soon := func(in time.Duration) { next = min(next, in) }
	soon(d.clock.WallUntil(d.tickAt()))
	for _, ir := range d.insts {
		switch {
		case ir.inst.State == cloud.Terminated:
		case ir.draining:
			soon(d.clock.WallUntil(ir.releaseAt))
		case ir.inst.State == cloud.Pending && ir.agent != nil:
			soon(d.clock.WallUntil(ir.inst.ActiveAt))
		case ir.inst.State == cloud.Pending:
			soon(d.clock.WallUntil(ir.inst.ActiveAt + d.cfg.doaGrace))
		}
	}
	for _, l := range d.leases {
		if l.state == leaseActive {
			soon(l.deadline.Sub(wall))
		}
	}
	for i := range d.tasks {
		if ts := &d.tasks[i]; ts.pendingRequeue && ts.state == monitor.Ready {
			soon(ts.requeueAt.Sub(wall))
		}
	}
	soon(d.nextReap.Sub(wall))
	return max(next, 0)
}

// armWakeLocked (re)arms the one wake timer to fire in the given time.
func (d *Dispatcher) armWakeLocked(in time.Duration) {
	d.stopWakeLocked()
	d.wakeAt = d.cfg.now().Add(in)
	d.stopWake = d.cfg.after(in, func() {
		d.mu.Lock()
		defer d.mu.Unlock()
		d.wakeLocked()
	})
}

func (d *Dispatcher) stopWakeLocked() {
	if d.stopWake != nil {
		d.stopWake()
		d.stopWake = nil
	}
}

// dueInLocked makes the wake timer fire no later than in from now: a live
// call outside a wake has just set a due instant.
func (d *Dispatcher) dueInLocked(in time.Duration) {
	if d.state == Running && (d.stopWake == nil || d.cfg.now().Add(in).Before(d.wakeAt)) {
		d.armWakeLocked(in)
	}
}

// launchLocked orders one instance at simulated time now. Its activation (or
// DOA write-off) instant is its ActiveAt.
func (d *Dispatcher) launchLocked(now simtime.Time) error {
	if d.site.Full() {
		return cloud.ErrSiteFull
	}
	id := cloud.InstanceID(len(d.site.Instances()))
	if !d.commitLocked(Record{Kind: RecInstanceLaunch, NowS: now, Instance: intPtr(int(id))}) {
		return d.runErr
	}
	return nil
}

// activateLocked makes a bound pending instance active: leases may flow.
func (d *Dispatcher) activateLocked(ir *instRec) {
	now := d.clock.Now()
	if simtime.Before(now, ir.inst.ActiveAt) {
		now = ir.inst.ActiveAt // the wake fired a hair early
	}
	d.commitLocked(Record{Kind: RecInstanceActive, NowS: now, Instance: intPtr(int(ir.inst.ID)), Agent: ir.agent.id})
}

// bindAgentsLocked pairs unbound, non-terminated instances with parked
// agents, lowest instance ID first, in registration order. A binding past
// the nominal activation time activates immediately (the agent was late to
// the party but the lag has elapsed); an earlier one is due to activate at
// that time.
func (d *Dispatcher) bindAgentsLocked() {
	ids := make([]int, 0, len(d.insts))
	for id := range d.insts {
		ids = append(ids, int(id))
	}
	sort.Ints(ids)
	for _, id := range ids {
		ir := d.insts[cloud.InstanceID(id)]
		if ir.inst.State == cloud.Terminated || ir.agent != nil || ir.draining {
			continue
		}
		a := d.pickParkedLocked()
		if a == nil {
			return
		}
		now := d.clock.Now()
		if !d.commitLocked(Record{Kind: RecAgentBound, NowS: now, Agent: a.id, Instance: intPtr(id)}) {
			return
		}
		switch {
		case ir.inst.State != cloud.Pending:
		case simtime.AtOrAfter(now, ir.inst.ActiveAt):
			d.activateLocked(ir)
		default:
			d.dueInLocked(d.clock.WallUntil(ir.inst.ActiveAt))
		}
	}
}

// pickParkedLocked returns the longest-registered parked agent that is not
// blacklisted — binding a blacklisted agent would starve its instance, since
// no leases may flow to it anyway.
func (d *Dispatcher) pickParkedLocked() *agentState {
	wall := d.cfg.now()
	var best *agentState
	for _, a := range d.agents {
		if a.gone || a.inst != nil || d.blacklistedLocked(a.name, wall) {
			continue
		}
		if best == nil || a.id < best.id {
			best = a
		}
	}
	return best
}

// Register adds a worker. Agents registered before Start are bound to the
// bootstrap pool; later registrants park until a launch needs them.
func (d *Dispatcher) Register(name string, slots int) (RegisterResponse, error) {
	d.mu.Lock()
	defer d.mu.Unlock()
	if d.state == Done || d.state == Failed {
		return RegisterResponse{}, ErrRunOver
	}
	if slots <= 0 {
		slots = 1
	}
	// Reconnect: a returning agent is recognized by name. It keeps its
	// identity and its outstanding leases — they are re-marked undelivered
	// so the next poll reissues them. This is how a worker (or the whole
	// recovered daemon) survives a restart without losing lease identity.
	if name != "" {
		for _, a := range d.agents {
			if a.name != name || a.gone {
				continue
			}
			d.commitLocked(Record{Kind: RecAgentReconnected, NowS: d.clock.Now(),
				Agent: a.id, Slots: slots, Detail: name})
			a.lastSeen = d.cfg.now()
			redelivered := 0
			for _, l := range a.leases {
				if l.state == leaseActive && l.delivered {
					l.delivered = false
					redelivered++
				}
			}
			d.cfg.Logf("exec: agent %s (%s) reconnected, %d leases reissued", a.id, name, redelivered)
			if d.state == Running {
				d.bindAgentsLocked()
				d.dispatchLocked()
				d.notifyLocked()
			}
			return RegisterResponse{AgentID: a.id, HeartbeatTTLMs: d.cfg.HeartbeatTTL.Milliseconds()}, nil
		}
	}
	id := fmt.Sprintf("a%d", d.agentSeq+1)
	if name == "" {
		name = id
	}
	if !d.commitLocked(Record{Kind: RecAgentRegistered, NowS: d.clock.Now(), Agent: id, Slots: slots, Detail: name}) {
		return RegisterResponse{}, d.runErr
	}
	d.agents[id].lastSeen = d.cfg.now()
	if d.state == Running {
		d.bindAgentsLocked()
		d.dispatchLocked()
	}
	return RegisterResponse{AgentID: id, HeartbeatTTLMs: d.cfg.HeartbeatTTL.Milliseconds()}, nil
}

// dispatchLocked grants ready tasks to free capacity on active, non-draining
// instances with live agents, lowest instance ID first — the simulator's
// dispatch order, so live and simulated runs assign work identically.
func (d *Dispatcher) dispatchLocked() {
	if d.state != Running || d.draining {
		return
	}
	now := d.clock.Now()
	for d.state == Running {
		it, ok := d.queue.Peek()
		if !ok {
			return
		}
		a := d.pickAgentLocked(now)
		if a == nil {
			return
		}
		d.grantLocked(it.Task, a, now)
	}
}

func (d *Dispatcher) pickAgentLocked(now simtime.Time) *agentState {
	return d.pickAgentExcludingLocked(now, nil)
}

// pickAgentExcludingLocked returns the lowest-instance-ID agent with free
// capacity, skipping the excluded agent (speculation must pick a *different*
// worker) and any agent currently blacklisted by health scoring.
func (d *Dispatcher) pickAgentExcludingLocked(now simtime.Time, exclude *agentState) *agentState {
	wall := d.cfg.now()
	var best *agentState
	for _, ir := range d.insts {
		a := ir.agent
		if a == nil || a.gone || a == exclude || ir.draining {
			continue
		}
		if ir.inst.State != cloud.Active || !ir.inst.UsableAt(now) {
			continue
		}
		if len(a.leases) >= a.capacity() {
			continue
		}
		if d.blacklistedLocked(a.name, wall) {
			continue
		}
		if best == nil || ir.inst.ID < best.inst.inst.ID {
			best = a
		}
	}
	return best
}

// grantLocked leases the ready queue's next task to an agent.
func (d *Dispatcher) grantLocked(task dag.TaskID, a *agentState, now simtime.Time) {
	id := d.leaseSeq + 1
	if !d.commitLocked(Record{Kind: RecLeaseGranted, NowS: now, Agent: a.id,
		Lease: int64Ptr(id), Task: intPtr(int(task)), Instance: intPtr(int(a.inst.inst.ID))}) {
		return
	}
	d.leaseDeadlineLocked(d.leases[id])
}

// leaseDeadlineLocked gives an active lease a fresh wall-clock deadline,
// which bounds the agent's occupancy: the expected scaled duration times
// LeaseFactor, plus slack.
func (d *Dispatcher) leaseDeadlineLocked(l *lease) {
	t := d.wf.Task(l.task)
	expected := d.clock.WallDuration(t.ExecTime + t.TransferTime)
	ttl := time.Duration(float64(expected)*d.cfg.LeaseFactor) + d.cfg.LeaseSlack
	l.deadline = d.cfg.now().Add(ttl)
	d.dueInLocked(ttl)
}

// leaseSpecLocked builds the wire lease for delivery.
func (d *Dispatcher) leaseSpecLocked(l *lease) Lease {
	t := d.wf.Task(l.task)
	return Lease{
		ID:    l.id,
		Task:  t.ID,
		Stage: t.Stage,
		Spec: TaskSpec{
			ExecS:     t.ExecTime,
			TransferS: t.TransferTime,
			InputMB:   t.InputSize,
			Timescale: d.cfg.Timescale,
			BusyFrac:  d.cfg.BusyFrac,
		},
		DeadlineMs:  l.deadline.Sub(d.cfg.now()).Milliseconds(),
		Attempt:     l.attempt,
		Speculative: l.spec,
	}
}

// blacklistedLocked reports whether the named agent is inside a blacklist
// cooldown window. Reactivation is lazy: once the window passes, the agent is
// simply eligible again (its counters were reset at blacklist time, so it
// re-earns trust from a clean slate).
func (d *Dispatcher) blacklistedLocked(name string, wall time.Time) bool {
	h := d.health[name]
	return h != nil && wall.Before(h.blacklistedUntil)
}

// checkBlacklistLocked blacklists the named worker when the failures debited
// to it (by the records of a failed agent or a failed attempt) have crossed
// the configured threshold and ratio.
func (d *Dispatcher) checkBlacklistLocked(name string, now simtime.Time) {
	h := d.healthFor(name)
	wall := d.cfg.now()
	if d.state != Running || wall.Before(h.blacklistedUntil) {
		return // the retirement ended the run, or a cooldown is being served
	}
	total := h.completions + h.failures
	if h.failures < healthMinEvents || float64(h.failures)/float64(total) < healthFailureRatio {
		return
	}
	detail := fmt.Sprintf("failures=%d completions=%d cooldown=%v", h.failures, h.completions, d.cfg.healthCooldown)
	if !d.commitLocked(Record{Kind: RecAgentBlacklisted, NowS: now, Agent: name, Detail: detail}) {
		return
	}
	h.blacklistedUntil = wall.Add(d.cfg.healthCooldown)
	d.cfg.Logf("exec: agent %q blacklisted: %s", name, detail)
}

// Poll is the agent's heartbeat and lease pickup. It long-polls up to wait
// when the agent has no undelivered leases. The wait is a real timer: it
// paces the caller, not the run, so it never reads the run's clock.
func (d *Dispatcher) Poll(ctx context.Context, agentID string, wait time.Duration) (PollResponse, error) {
	const maxWait = 30 * time.Second
	wait = min(wait, maxWait)
	timer := time.NewTimer(wait)
	defer timer.Stop()
	expired := wait <= 10*time.Millisecond
	for {
		d.mu.Lock()
		a, ok := d.agents[agentID]
		if !ok || a.gone {
			d.mu.Unlock()
			return PollResponse{}, ErrUnknownAgent
		}
		a.lastSeen = d.cfg.now()
		resp := PollResponse{Status: a.status(), Done: d.state == Done || d.state == Failed}
		for _, l := range a.leases {
			if l.state == leaseActive && !l.delivered {
				l.delivered = true
				resp.Leases = append(resp.Leases, d.leaseSpecLocked(l))
			}
		}
		sort.Slice(resp.Leases, func(i, j int) bool { return resp.Leases[i].ID < resp.Leases[j].ID })
		if len(resp.Leases) > 0 || resp.Done || expired {
			d.mu.Unlock()
			return resp, nil
		}
		ch := make(chan struct{})
		d.waiters = append(d.waiters, ch)
		d.mu.Unlock()

		select {
		case <-ctx.Done():
			return PollResponse{}, ctx.Err()
		case <-timer.C:
			expired = true
		case <-ch:
		case <-d.done:
		}
	}
}

// ReportTransfer records the measured input-transfer duration of a running
// lease — the live counterpart of the simulator's mid-attempt transfer
// observation feeding Snapshot.RecentTransfers.
func (d *Dispatcher) ReportTransfer(agentID string, leaseID int64, rep TransferReport) (Ack, error) {
	d.mu.Lock()
	defer d.mu.Unlock()
	a, ok := d.agents[agentID]
	if !ok {
		return Ack{}, ErrUnknownAgent
	}
	if !a.gone {
		a.lastSeen = d.cfg.now()
	}
	// A finished run accepts no observations: acknowledging stale keeps a
	// late report from resurrecting per-task state after an abort.
	if d.state != Running {
		d.counters.StaleReports++
		return Ack{Stale: true}, nil
	}
	l, ok := d.leases[leaseID]
	if !ok || l.state != leaseActive || l.agent != a {
		d.counters.StaleReports++
		return Ack{Stale: true}, nil
	}
	if l.id != d.tasks[l.task].leaseID {
		// Speculative duplicate: accepted, but the task's transfer record
		// follows the primary copy only.
		return Ack{}, nil
	}
	d.commitLocked(Record{Kind: RecLeaseTransfer, NowS: d.clock.Now(), Agent: a.id,
		Lease: int64Ptr(l.id), TransferS: rep.TransferS})
	return Ack{}, nil
}

// Complete finishes a lease with the agent's measured times. A stale lease
// (reclaimed, or superseded after an agent failure) is acknowledged and
// ignored — the task was requeued and runs elsewhere.
func (d *Dispatcher) Complete(agentID string, leaseID int64, rep CompleteReport) (Ack, error) {
	d.mu.Lock()
	defer d.mu.Unlock()
	a, ok := d.agents[agentID]
	if !ok {
		return Ack{}, ErrUnknownAgent
	}
	if !a.gone {
		a.lastSeen = d.cfg.now()
	}
	// A finished run accepts no completions: without this gate a late
	// report after an abort could re-run the finish path (double close of
	// done) and resurrect deleted state.
	if d.state != Running {
		d.counters.StaleReports++
		return Ack{Stale: true}, nil
	}
	l, ok := d.leases[leaseID]
	if !ok || l.state != leaseActive || l.agent != a {
		d.counters.StaleReports++
		return Ack{Stale: true}, nil
	}
	now := d.clock.Now()

	if rep.Failed {
		// Failed attempt: the lease is consumed and the agent's health
		// debited. With a surviving duplicate the task still runs there —
		// this copy is merely superseded; otherwise it is reclaimed
		// against its attempt budget and requeued with backoff.
		d.cfg.Logf("exec: lease %d (task %d) failed on agent %s: %s", l.id, l.task, a.id, rep.Error)
		d.retireLocked(l, now, true, reasonTaskFailed)
		d.checkBlacklistLocked(a.name, now)
		d.dispatchLocked()
		d.notifyLocked()
		return Ack{}, nil
	}

	// First completion wins: retire the losing duplicate before recording
	// the winner, so the task's lease of record is the one that finished.
	if other := d.otherActiveLocked(&d.tasks[l.task], l); other != nil {
		d.supersedeLocked(other, now, "")
	}
	if !d.commitLocked(Record{Kind: RecLeaseCompleted, NowS: now, Agent: a.id,
		Lease: int64Ptr(l.id), Task: intPtr(int(l.task)), ExecS: rep.ExecS, TransferS: rep.TransferS}) {
		return Ack{}, nil
	}
	if d.finishableLocked() {
		d.finishLocked(now)
		return Ack{}, nil
	}
	d.dispatchLocked()
	d.notifyLocked()
	return Ack{}, nil
}

// otherActiveLocked returns the task's other still-active lease (primary vs
// speculative duplicate), or nil.
func (d *Dispatcher) otherActiveLocked(ts *taskState, l *lease) *lease {
	otherID := ts.leaseID
	if l.id == ts.leaseID {
		otherID = ts.specLease
	}
	if otherID == 0 || otherID == l.id {
		return nil
	}
	o, ok := d.leases[otherID]
	if !ok || o.state != leaseActive {
		return nil
	}
	return o
}

// finishableLocked reports whether every task is accounted for: completed,
// or written off as quarantined/unreachable.
func (d *Dispatcher) finishableLocked() bool {
	return d.completed+len(d.unreach) == d.wf.NumTasks()
}

// reapLocked declares agents dead whose heartbeat lapsed.
func (d *Dispatcher) reapLocked() {
	cutoff := d.cfg.now().Add(-d.cfg.HeartbeatTTL)
	var stale []*agentState
	for _, a := range d.agents {
		if !a.gone && a.lastSeen.Before(cutoff) {
			stale = append(stale, a)
		}
	}
	sort.Slice(stale, func(i, j int) bool { return stale[i].id < stale[j].id })
	for _, a := range stale {
		d.cfg.Logf("exec: agent %s heartbeat lapsed", a.id)
		d.failAgentLocked(a, "heartbeat-lost")
	}
}

// failAgentLocked removes a crashed or partitioned agent: every active lease
// is reclaimed (requeued exactly once — the lease state machine makes a
// second reclaim impossible), and its instance fails like a simulator MTBF
// crash.
func (d *Dispatcher) failAgentLocked(a *agentState, reason string) {
	if a.gone {
		return
	}
	now := d.clock.Now()
	ir := a.inst
	// The record debits the agent's health: the lapse itself plus one per
	// lease it held.
	if !d.commitLocked(Record{Kind: RecAgentFailed, NowS: now, Agent: a.id, Detail: reason}) {
		return
	}
	for _, l := range sortedLeases(a.leases) {
		d.retireLocked(l, now, true, reason)
	}
	d.checkBlacklistLocked(a.name, now)
	if ir != nil {
		d.terminateInstLocked(ir, now)
		// A parked agent may take over the vacated logical capacity only
		// via a fresh controller launch; the instance is gone, as in the
		// simulator.
	}
	d.dispatchLocked()
	d.notifyLocked()
}

func sortedLeases(m map[int64]*lease) []*lease {
	out := make([]*lease, 0, len(m))
	for _, l := range m {
		out = append(out, l)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].id < out[j].id })
	return out
}

// retireLocked ends an active lease that will not complete: superseded when
// a healthy duplicate of the task survives elsewhere (the task is not
// requeued), else reclaimed. Only a failed attempt marks a supersession, so
// that the record debits the reporting agent as the reclaim would have.
func (d *Dispatcher) retireLocked(l *lease, now simtime.Time, failure bool, reason string) {
	switch {
	case d.otherActiveLocked(&d.tasks[l.task], l) == nil:
		d.reclaimLocked(l, now, failure, reason)
	case reason == reasonTaskFailed:
		d.supersedeLocked(l, now, reason)
	default:
		d.supersedeLocked(l, now, "")
	}
}

// reclaimLocked retires a leased task's last active lease. The lease reaches
// the terminal reclaimed state with the record, so a duplicate expiry/failure
// path or a late agent report cannot requeue it twice. failure marks an
// attempt burned against the task's budget: the requeue is then delayed with
// exponential backoff, and a task at its MaxTaskAttempts budget is
// quarantined instead of requeued. Non-failure reclaims (controller releases)
// requeue immediately and stay off the budget.
func (d *Dispatcher) reclaimLocked(l *lease, now simtime.Time, failure bool, reason string) {
	attempts := d.tasks[l.task].failedAttempts
	if failure {
		attempts++
	}
	if !d.commitLocked(Record{Kind: RecLeaseReclaimed, NowS: now, Agent: l.agent.id,
		Lease: int64Ptr(l.id), Task: intPtr(int(l.task)), Attempt: attempts, Detail: reason}) {
		return
	}

	switch {
	case !failure:
		d.requeueLocked(l.task, now)
	case d.cfg.MaxTaskAttempts > 0 && attempts >= d.cfg.MaxTaskAttempts:
		d.quarantineLocked(l.task, now)
	default:
		// Exponential backoff before the task re-enters the ready queue:
		// RequeueBase·2^(attempts-1), capped at 5 s of wall clock, so a
		// poison task cannot hammer the pool between failures.
		delay := d.cfg.RequeueBase
		for i := 1; i < attempts && delay < 5*time.Second; i++ {
			delay *= 2
		}
		if delay > 5*time.Second {
			delay = 5 * time.Second
		}
		d.tasks[l.task].requeueAt = d.cfg.now().Add(delay)
		d.dueInLocked(delay)
	}
}

// requeueLocked returns a reclaimed task to the ready queue; the record keeps
// the queue's order reproducible.
func (d *Dispatcher) requeueLocked(id dag.TaskID, now simtime.Time) {
	d.commitLocked(Record{Kind: RecTaskRequeued, NowS: now, Task: intPtr(int(id)), Attempt: d.tasks[id].failedAttempts})
}

// quarantineLocked retires a poison task after its attempt budget: it will
// never be scheduled again, its transitive successors become unreachable,
// and the run finishes Done-but-degraded once the remaining tasks complete.
func (d *Dispatcher) quarantineLocked(id dag.TaskID, now simtime.Time) {
	attempts := d.tasks[id].failedAttempts
	if !d.commitLocked(Record{Kind: RecTaskQuarantined, NowS: now, Task: intPtr(int(id)), Attempt: attempts}) {
		return
	}
	d.cfg.Logf("exec: task %d quarantined after %d failed attempts", id, attempts)
	if d.finishableLocked() {
		d.finishLocked(now)
	}
}

// supersedeLocked retires the losing copy of a duplicated task: the race was
// decided (the other copy completed) or this copy's agent vanished while a
// healthy duplicate survived. The task is NOT requeued — it still runs or
// already finished on the other copy — so supersession keeps the lease
// identity without touching the queue.
func (d *Dispatcher) supersedeLocked(l *lease, now simtime.Time, detail string) {
	d.commitLocked(Record{Kind: RecLeaseSuperseded, NowS: now, Agent: l.agent.id,
		Lease: int64Ptr(l.id), Task: intPtr(int(l.task)), Detail: detail})
}

// terminateInstLocked ends a logical instance (billing stops; pending
// instances cancel unbilled).
func (d *Dispatcher) terminateInstLocked(ir *instRec, now simtime.Time) {
	if ir.inst.State == cloud.Terminated {
		return
	}
	d.commitLocked(Record{Kind: RecInstanceEnd, NowS: now, Instance: intPtr(int(ir.inst.ID))})
}

// releaseLocked executes a controller release order at time now: running
// leases are reclaimed (the simulator's kill-on-terminate semantics), the
// instance terminates, and the agent returns to the parked pool, available
// for future launches.
func (d *Dispatcher) releaseLocked(ir *instRec, now simtime.Time) {
	if ir.inst.State == cloud.Terminated {
		return
	}
	if a := ir.agent; a != nil {
		for _, l := range sortedLeases(a.leases) {
			d.retireLocked(l, now, false, "instance-released")
		}
		d.commitLocked(Record{Kind: RecAgentParked, NowS: now, Agent: a.id})
	}
	d.terminateInstLocked(ir, now)
	d.bindAgentsLocked()
	d.dispatchLocked()
	d.notifyLocked()
}

// tickLocked runs one MAPE iteration: assemble the snapshot from live state,
// consult the controller, record the pair for the parity twin, apply the
// decision with lag semantics.
func (d *Dispatcher) tickLocked() {
	now := d.clock.Now()
	// At least one past the tick that just ran, whatever now/Interval
	// rounds to.
	d.tickSeq = max(d.tickSeq+1, d.nextTickSeq(now))

	snap := d.snapshotLocked(now)
	snapJSON, err := json.Marshal(snap)
	if err != nil {
		d.failLocked(err)
		return
	}

	dec := d.planLocked(snap)
	if d.state != Running {
		return // the controller panicked
	}
	decJSON, err := json.Marshal(dec)
	if err != nil {
		d.failLocked(err)
		return
	}
	// The full snapshot/decision pair rides in the record: it is the run's
	// plan stream, which a restarted daemon must still serve for the
	// TwinVerify parity certificate. The record also marks the instances the
	// decision releases as draining.
	if !d.commitLocked(Record{Kind: RecDecision, NowS: now,
		Detail:   fmt.Sprintf("launch=%d releases=%d", dec.Launch, len(dec.Releases)),
		Snapshot: snapJSON, Decision: decJSON}) {
		return
	}

	if err := d.applyLocked(dec, now); err != nil {
		d.failLocked(err)
		return
	}
	if d.pred != nil && d.state == Running {
		d.pred.Update(snap)
		d.speculateLocked(snap, now)
	}
	// Retry dispatch every tick: queued tasks may have become grantable with
	// no triggering event — most notably when a blacklisted agent's cooldown
	// lapses (reactivation is a lazy predicate, not a timer).
	d.dispatchLocked()
}

// speculateLocked scans running primaries for stragglers: a lease whose
// elapsed simulated time exceeds SpeculationFactor × the online predictor's
// occupancy estimate for the task (the same estimators the WIRE controller
// plans with) gets a duplicate lease on a different healthy agent. First
// completion wins; the loser is superseded and acked Stale on late reports.
func (d *Dispatcher) speculateLocked(snap *monitor.Snapshot, now simtime.Time) {
	for i := range d.tasks {
		ts := &d.tasks[i]
		if ts.state != monitor.Running || ts.specLease != 0 {
			continue
		}
		primary, ok := d.leases[ts.leaseID]
		if !ok || primary.state != leaseActive {
			continue
		}
		id := dag.TaskID(i)
		est, pol := d.pred.EstimateOccupancy(snap, id)
		// RunningMedian is self-referential (a lone straggler drags its own
		// threshold), and Zero/Prior carry no observed signal yet.
		if est <= 0 || pol == predict.PolicyZero || pol == predict.PolicyRunningMedian || pol == predict.PolicyPrior {
			continue
		}
		if float64(now-ts.startedAt) <= d.cfg.SpeculationFactor*est {
			continue
		}
		a := d.pickAgentExcludingLocked(now, primary.agent)
		if a == nil {
			continue // no healthy second agent; retry next tick
		}
		lid := d.leaseSeq + 1
		if !d.commitLocked(Record{Kind: RecLeaseSpeculated, NowS: now, Agent: a.id,
			Lease: int64Ptr(lid), Task: intPtr(int(id)), Instance: intPtr(int(a.inst.inst.ID)), Attempt: primary.attempt}) {
			return
		}
		d.cfg.Logf("exec: speculating task %d (elapsed %.1fs > %.1f×%.1fs) on agent %s",
			id, now-ts.startedAt, d.cfg.SpeculationFactor, est, a.id)
		d.leaseDeadlineLocked(d.leases[lid])
		d.notifyLocked()
	}
}

// planLocked calls the controller, converting a policy panic into a run
// failure instead of taking the process down.
func (d *Dispatcher) planLocked(snap *monitor.Snapshot) (dec sim.Decision) {
	defer func() {
		if r := recover(); r != nil {
			d.failLocked(fmt.Errorf("exec: controller panic: %v", r))
			dec = sim.Decision{}
		}
	}()
	return d.cfg.Controller.Plan(snap)
}

// applyLocked maps a pool decision onto agents and billing, mirroring the
// simulator's apply.
func (d *Dispatcher) applyLocked(dec sim.Decision, now simtime.Time) error {
	if dec.Launch < 0 {
		return fmt.Errorf("exec: controller %s requested negative launch %d", d.cfg.Controller.Name(), dec.Launch)
	}
	for i := 0; i < dec.Launch; i++ {
		if err := d.launchLocked(now); err != nil {
			if err == cloud.ErrSiteFull {
				break // best effort at the cap
			}
			return err
		}
	}
	d.bindAgentsLocked()
	for _, ro := range dec.Releases {
		ir, ok := d.insts[ro.Instance]
		if !ok {
			return fmt.Errorf("exec: controller %s released unknown instance %d", d.cfg.Controller.Name(), ro.Instance)
		}
		if ir.inst.State == cloud.Terminated {
			return fmt.Errorf("exec: controller %s released terminated instance %d", d.cfg.Controller.Name(), ro.Instance)
		}
		// An order due now is carried out at once; a later one (a charging
		// boundary) is the instance's releaseAt, which the wake serves.
		if simtime.AtOrBefore(ir.releaseAt, now) {
			d.releaseLocked(ir, now)
		}
	}
	return nil
}

// snapshotLocked assembles the monitoring view from live agent telemetry —
// the same structure the simulator builds from its event state, but every
// time here was measured on a wall clock by a worker process.
func (d *Dispatcher) snapshotLocked(now simtime.Time) *monitor.Snapshot {
	snap := &monitor.Snapshot{
		Now:              now,
		Interval:         d.cfg.Interval,
		ChargingUnit:     d.cfg.Cloud.ChargingUnit,
		LagTime:          d.cfg.Cloud.LagTime,
		SlotsPerInstance: d.cfg.Cloud.SlotsPerInstance,
		MaxInstances:     d.cfg.Cloud.MaxInstances,
		Workflow:         d.wf,
		Tasks:            make([]monitor.TaskRecord, d.wf.NumTasks()),
	}
	for _, t := range d.wf.Tasks {
		ts := &d.tasks[t.ID]
		rec := monitor.TaskRecord{
			ID:        t.ID,
			Stage:     t.Stage,
			State:     ts.state,
			InputSize: t.InputSize,
			ReadyAt:   ts.readyAt,
		}
		switch ts.state {
		case monitor.Running:
			rec.StartedAt = ts.startedAt
			rec.Instance = ts.instance
			rec.Elapsed = now - ts.startedAt
			if ts.transferObserved {
				rec.TransferObserved = true
				rec.TransferTime = ts.transferTime
			}
		case monitor.Completed:
			rec.StartedAt = ts.startedAt
			rec.Instance = ts.instance
			rec.CompletedAt = ts.completedAt
			rec.ExecTime = ts.execTime
			rec.TransferObserved = true
			rec.TransferTime = ts.transferTime
		}
		snap.Tasks[t.ID] = rec

		if (ts.state == monitor.Running || ts.state == monitor.Completed) && ts.transferObserved {
			if simtime.After(ts.transferObservedAt, d.lastTick) && simtime.AtOrBefore(ts.transferObservedAt, now) {
				snap.RecentTransfers = append(snap.RecentTransfers, float64(ts.transferTime))
			}
		}
	}
	for _, in := range d.site.Instances() {
		if in.State == cloud.Terminated {
			continue
		}
		ir := d.insts[in.ID]
		rec := monitor.InstanceRecord{
			ID:               in.ID,
			State:            in.State,
			Slots:            in.Slots,
			RequestedAt:      in.RequestedAt,
			ActiveAt:         in.ActiveAt,
			TimeToNextCharge: in.TimeToNextCharge(now),
			Draining:         ir.draining,
		}
		if ir.agent != nil {
			for _, l := range sortedLeases(ir.agent.leases) {
				if l.state == leaseActive {
					rec.Running = append(rec.Running, l.task)
				}
			}
		}
		snap.Instances = append(snap.Instances, rec)
	}
	return snap
}

// finishLocked completes the run: all remaining instances terminate, final
// metrics freeze, and the lease identity is audited (any lease neither
// completed nor reclaimed counts as lost — the invariant CI asserts is zero).
func (d *Dispatcher) finishLocked(now simtime.Time) {
	d.stopWakeLocked()
	for _, in := range d.site.Instances() {
		d.terminateInstLocked(d.insts[in.ID], now)
	}
	outstanding := d.counters.LeasesGranted - d.counters.LeasesCompleted -
		d.counters.LeasesReclaimed - d.counters.LeasesSuperseded
	if outstanding > 0 {
		d.counters.LeasesLost = outstanding
	}
	d.result = &LiveResult{
		Workflow:       d.wf.Name,
		Policy:         d.cfg.Controller.Name(),
		MakespanS:      simtime.Duration(now),
		UnitsCharged:   d.site.TotalUnitsCharged(now),
		ChargedSeconds: d.site.TotalChargedSeconds(now),
		Utilization:    d.site.Utilization(now),
		PeakPool:       d.peakPool,
		Launches:       d.launches,
		Restarts:       d.restarts,
		Failures:       d.failures,
		Decisions:      d.decisions,
		DeadOnArrival:  int(d.counters.DOAWriteoffs),
		Timescale:      d.cfg.Timescale,
		WallElapsedMs:  d.cfg.now().Sub(d.startWall).Milliseconds(),
		Counters:       d.counters,
	}
	if len(d.unreach) > 0 {
		d.result.Degraded = true
		d.result.QuarantinedTasks = int(d.counters.QuarantinedTasks)
		d.result.UnreachableTasks = len(d.unreach) - d.result.QuarantinedTasks
	}
	d.commitLocked(Record{Kind: RecRunDone, NowS: now,
		Detail: fmt.Sprintf("makespan=%.1fs units=%d", now, d.result.UnitsCharged)})
	d.cfg.Logf("exec: run done: makespan %.1f sim-s, %d units, %d decisions, wall %v",
		now, d.result.UnitsCharged, d.decisions, d.cfg.now().Sub(d.startWall).Round(time.Millisecond))
	close(d.done)
	d.notifyLocked()
}

// failLocked aborts the run. Outstanding leases become lost (they will never
// complete or be reclaimed), which keeps the lease identity auditable even
// for failed runs.
func (d *Dispatcher) failLocked(err error) {
	if d.state == Done || d.state == Failed {
		return
	}
	d.runErr = err
	d.stopWakeLocked()
	outstanding := d.counters.LeasesGranted - d.counters.LeasesCompleted -
		d.counters.LeasesReclaimed - d.counters.LeasesSuperseded
	if outstanding > 0 {
		d.counters.LeasesLost = outstanding
	}
	d.commitLocked(Record{Kind: RecRunFailed, NowS: d.clock.Now(), Detail: err.Error()})
	d.cfg.Logf("exec: run failed: %v", err)
	close(d.done)
	d.notifyLocked()
}

// Abort fails a run from the outside (DELETE endpoint, driver teardown).
func (d *Dispatcher) Abort(reason string) {
	d.mu.Lock()
	defer d.mu.Unlock()
	if d.state == Created {
		// Never started: mark failed directly so waiters release.
		d.state = Failed
		d.runErr = fmt.Errorf("exec: aborted: %s", reason)
		close(d.done)
		d.notifyLocked()
		return
	}
	d.failLocked(fmt.Errorf("exec: aborted: %s", reason))
}

// SetDraining stops granting new leases (in-flight ones run to completion).
// Used by the server's graceful shutdown.
func (d *Dispatcher) SetDraining(v bool) {
	d.mu.Lock()
	defer d.mu.Unlock()
	d.draining = v
	if !v && d.state == Running {
		d.dispatchLocked()
		d.notifyLocked()
	}
}

// OutstandingLeases returns the number of granted leases neither completed,
// reclaimed, nor superseded.
func (d *Dispatcher) OutstandingLeases() int {
	d.mu.Lock()
	defer d.mu.Unlock()
	return int(d.counters.LeasesGranted - d.counters.LeasesCompleted -
		d.counters.LeasesReclaimed - d.counters.LeasesSuperseded)
}

// State returns the run state.
func (d *Dispatcher) State() RunState {
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.state
}

// Counters returns a copy of the live counters.
func (d *Dispatcher) Counters() Counters {
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.counters
}

// Records returns the recorded plan stream for the parity twin.
func (d *Dispatcher) Records() []PlanRecord {
	d.mu.Lock()
	defer d.mu.Unlock()
	out := make([]PlanRecord, len(d.records))
	copy(out, d.records)
	return out
}

// Assignments returns the live task→agent assignment state, comparable with
// a journal replay's ReplayAssignments.
func (d *Dispatcher) Assignments() *AssignmentState {
	d.mu.Lock()
	defer d.mu.Unlock()
	st := NewAssignmentState()
	for i := range d.tasks {
		ts := &d.tasks[i]
		id := dag.TaskID(i)
		switch ts.state {
		case monitor.Running:
			st.Leased[id] = ts.agent
		case monitor.Completed:
			st.Completed[id] = true
		}
		if ts.restarts > 0 {
			st.Reclaims[id] = ts.restarts
		}
	}
	for id, a := range d.agents {
		if !a.gone {
			st.LiveAgents[id] = true
		}
	}
	return st
}

// Status summarizes the run for the status endpoint. The RunInfo.ID field is
// filled by the registry.
func (d *Dispatcher) Status() RunStatusResponse {
	d.mu.Lock()
	defer d.mu.Unlock()
	resp := RunStatusResponse{
		RunInfo: RunInfo{
			Workflow:  d.wf.Name,
			Tasks:     d.wf.NumTasks(),
			Stages:    len(d.wf.Stages),
			Policy:    d.cfg.Controller.Name(),
			Timescale: d.cfg.Timescale,
			State:     d.state,
		},
		NowS:           d.clock.Now(),
		TasksCompleted: d.completed,
		Decisions:      d.decisions,
		Counters:       d.counters,
		Result:         d.result,
	}
	if d.runErr != nil {
		resp.Error = d.runErr.Error()
	}
	for _, in := range d.site.Instances() {
		if in.State != cloud.Terminated {
			resp.AgentsRequired++
		}
	}
	ids := make([]string, 0, len(d.agents))
	for id := range d.agents {
		ids = append(ids, id)
	}
	sort.Strings(ids)
	wall := d.cfg.now()
	for _, id := range ids {
		a := d.agents[id]
		as := AgentStatus{ID: a.id, Name: a.name, Slots: a.slots, Status: a.status(),
			Blacklisted: d.blacklistedLocked(a.name, wall)}
		if a.inst != nil {
			v := int(a.inst.inst.ID)
			as.Instance = &v
		}
		for _, l := range a.leases {
			if l.state == leaseActive {
				as.ActiveLeases++
			}
		}
		resp.Agents = append(resp.Agents, as)
	}
	return resp
}
