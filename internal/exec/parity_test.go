package exec

import (
	"context"
	"fmt"
	"os"
	"sort"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/cloud"
	"repro/internal/dag"
	"repro/internal/monitor"
	"repro/internal/sim"
	"repro/internal/simtime"
)

// This file makes "replaying the journal gives the live state" an oracle
// instead of a convention. stateDump prints every journaled field of a
// dispatcher; assertReplayParity requires a fresh dispatcher folded from the
// journal to print the same; the scripted run below drives one dispatcher
// through most of the record grammar on a hand-moved clock and checks the
// same thing at every step and for every prefix of its journal.

// stateDump renders the run's journaled state, one field group per line, in a
// fixed order. Wall-clock state (requeue instants, lastSeen, lease deadlines,
// delivered, blacklist windows) and the two counters no record carries are left out.
// Callers hold d.mu.
func stateDump(d *Dispatcher) string {
	var b strings.Builder
	c := d.counters
	c.StaleReports, c.JournalErrors = 0, 0
	fmt.Fprintf(&b, "run state=%v doneAt=%v startMs=%d lastMs=%d lastNow=%v recSeq=%d agentSeq=%d leaseSeq=%d\n",
		d.state, d.doneAt, d.startMs, d.lastMs, d.lastNow, d.recSeq, d.agentSeq, d.leaseSeq)
	fmt.Fprintf(&b, "totals completed=%d restarts=%d failures=%d peakPool=%d launches=%d decisions=%d lastTick=%v units=%d\n",
		d.completed, d.restarts, d.failures, d.peakPool, d.launches, d.decisions, d.lastTick, d.site.TotalUnitsCharged(d.lastNow))
	fmt.Fprintf(&b, "counters %+v\n", c)
	for i := range d.tasks {
		ts := d.tasks[i]
		ts.requeueAt = time.Time{}
		fmt.Fprintf(&b, "task %d %+v unreachable=%v\n", i, ts, d.unreach[dag.TaskID(i)])
	}
	for _, l := range sortedLeases(d.leases) {
		fmt.Fprintf(&b, "lease %d task=%d agent=%s inst=%d state=%d grantedAt=%v spec=%v attempt=%d\n",
			l.id, l.task, l.agent.id, l.inst.inst.ID, l.state, l.grantedAt, l.spec, l.attempt)
	}
	ids := make([]string, 0, len(d.agents))
	for id := range d.agents {
		ids = append(ids, id)
	}
	sort.Strings(ids)
	for _, id := range ids {
		a := d.agents[id]
		inst := -1
		if a.inst != nil {
			inst = int(a.inst.inst.ID)
		}
		held := make([]int64, 0, len(a.leases))
		for _, l := range sortedLeases(a.leases) {
			held = append(held, l.id)
		}
		fmt.Fprintf(&b, "agent %s name=%s slots=%d inst=%d gone=%v leases=%v\n", a.id, a.name, a.slots, inst, a.gone, held)
	}
	for _, in := range d.site.Instances() {
		ir := d.insts[in.ID]
		agent := "-"
		if ir.agent != nil {
			agent = ir.agent.id
		}
		fmt.Fprintf(&b, "instance %d state=%v requested=%v active=%v terminated=%v origin=%v busy=%v agent=%s draining=%v releaseAt=%v\n",
			in.ID, in.State, in.RequestedAt, in.ActiveAt, in.TerminatedAt, in.ChargeOrigin(), in.BusySlotSeconds,
			agent, ir.draining, ir.releaseAt)
	}
	for _, it := range d.queue.Snapshot() {
		fmt.Fprintf(&b, "queued task=%d stage=%d readyAt=%v priority=%v\n", it.Task, it.Stage, it.ReadyAt, it.Priority)
	}
	names := make([]string, 0, len(d.health))
	for name := range d.health {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		h := d.health[name]
		fmt.Fprintf(&b, "health %s completions=%d failures=%d benched=%v\n", name, h.completions, h.failures, h.benched)
	}
	for _, r := range d.records {
		fmt.Fprintf(&b, "plan %d now=%v snapshot=%s decision=%s\n", r.Seq, r.NowS, r.Snapshot, r.Decision)
	}
	return b.String()
}

// firstDiff names the first line two line-by-line renderings disagree on.
func firstDiff(got, want string) string {
	g, w := strings.Split(got, "\n"), strings.Split(want, "\n")
	for i := 0; i < len(g) || i < len(w); i++ {
		var gl, wl string
		if i < len(g) {
			gl = g[i]
		}
		if i < len(w) {
			wl = w[i]
		}
		if gl != wl {
			return fmt.Sprintf("line %d\n got:  %s\n want: %s", i+1, gl, wl)
		}
	}
	return ""
}

// foldConfig is d's configuration for a second dispatcher folded from d's
// journal: same run, no journal of its own.
func foldConfig(d *Dispatcher) Config {
	cfg := d.cfg
	cfg.Journal = nil
	return cfg
}

// assertReplayParity requires that a fresh dispatcher folded from the run's
// journal holds exactly the journaled state the live dispatcher holds. The
// dump and the journal are read under one hold of the dispatcher lock, so the
// run may still be going.
func assertReplayParity(t *testing.T, d *Dispatcher, records func() []Record) {
	t.Helper()
	d.mu.Lock()
	live, recs, cfg := stateDump(d), records(), foldConfig(d)
	d.mu.Unlock()
	f, err := foldJournal(cfg, recs)
	if err != nil {
		t.Fatalf("the run's own journal does not fold: %v", err)
	}
	if replayed := stateDump(f); replayed != live {
		t.Fatalf("replaying the %d-record journal does not give the live state: %s", len(recs), firstDiff(replayed, live))
	}
}

// fakeClock is a wall clock a test moves by hand. Its wake timer never fires
// on its own: the test sets the clock and wakes the run (wakeAt).
type fakeClock struct {
	mu   sync.Mutex
	base time.Time
	at   time.Duration
}

func (c *fakeClock) now() time.Time {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.base.Add(c.at)
}

// set moves the clock to s seconds after the start (timescale 1: simulated
// seconds too).
func (c *fakeClock) set(s float64) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.at = time.Duration(s * float64(time.Second))
}

func (c *fakeClock) after(time.Duration, func()) func() bool { return func() bool { return true } }

// fakeClockConfig puts cfg on a fresh fake clock.
func fakeClockConfig(cfg Config) (Config, *fakeClock) {
	clk := &fakeClock{base: time.Unix(1_700_000_000, 0)}
	cfg.now, cfg.after = clk.now, clk.after
	return cfg, clk
}

// wakeAt moves the clock to s seconds and fires whatever is due then.
func wakeAt(d *Dispatcher, clk *fakeClock, s float64) {
	clk.set(s)
	d.mu.Lock()
	defer d.mu.Unlock()
	d.wakeLocked()
}

// scriptController plays a fixed list of decisions, one per tick, then holds.
type scriptController struct {
	script []sim.Decision
	n      int
}

func (*scriptController) Name() string { return "script" }
func (c *scriptController) Plan(*monitor.Snapshot) sim.Decision {
	c.n++
	if c.n <= len(c.script) {
		return c.script[c.n-1]
	}
	return sim.Decision{}
}

// scriptedConfig is the scripted run's configuration, on clk. RequeueBase
// makes the two backoffs due at t=31 and t=806, and the lease slack keeps
// every lease inside its deadline.
func scriptedConfig(clk *fakeClock, journal RecordSink) Config {
	return Config{
		Workflow: flatWorkflow(6, 100),
		Controller: &scriptController{script: []sim.Decision{
			{Launch: 1},
			{Releases: []sim.ReleaseOrder{{Instance: 1, AtBoundary: true}}},
			{},
			{Launch: 2},
		}},
		Cloud:           cloud.Config{SlotsPerInstance: 2, LagTime: 10, ChargingUnit: 60, MaxInstances: 3},
		Interval:        30,
		Timescale:       1,
		HeartbeatTTL:    10 * time.Minute,
		LeaseSlack:      time.Hour,
		RequeueBase:     6 * time.Second,
		MaxTaskAttempts: 3,
		Journal:         journal,
		Spec:            []byte(`{}`),
		now:             clk.now,
		after:           clk.after,
	}
}

// scriptStep is the journal length and the live state after one scripted call.
type scriptStep struct {
	records int
	dump    string
}

// runScript drives one dispatcher through a whole run: two workers, mid-task
// transfer reports, a failed attempt with its backoff requeue, a reconnect, a
// launch, a boundary release that reclaims two leases, a launch written off
// dead on arrival, a worker whose heartbeat lapses holding a lease, and the
// finish. Each timed transition is fired by a wake at the instant its step
// sets on the clock. It returns the finished dispatcher, its journal, and the
// state after every call.
func runScript(t *testing.T) (*Dispatcher, *MemorySink, []scriptStep) {
	t.Helper()
	clk := &fakeClock{base: time.Unix(1_700_000_000, 0)}
	sink := &MemorySink{}
	d, err := NewDispatcher(scriptedConfig(clk, sink))
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { d.Abort("test cleanup") })

	var steps []scriptStep
	step := func(at float64, what string, call func() error) {
		t.Helper()
		clk.set(at)
		if err := call(); err != nil {
			t.Fatalf("t=%v %s: %v", at, what, err)
		}
		d.mu.Lock()
		steps = append(steps, scriptStep{len(sink.Records()), stateDump(d)})
		d.mu.Unlock()
	}
	register := func(name string) func() error {
		return func() error { _, err := d.Register(name, 2); return err }
	}
	transfer := func(agent string, lease int64, s float64) func() error {
		return func() error {
			_, err := d.ReportTransfer(agent, lease, TransferReport{TransferS: simtime.Duration(s)})
			return err
		}
	}
	complete := func(agent string, lease int64, rep CompleteReport) func() error {
		return func() error {
			ack, err := d.Complete(agent, lease, rep)
			if err == nil && ack.Stale {
				err = fmt.Errorf("lease %d acked stale", lease)
			}
			return err
		}
	}
	done := CompleteReport{ExecS: 20.3, TransferS: 1.2, InputMB: 1}
	wake := func() error {
		d.mu.Lock()
		defer d.mu.Unlock()
		d.wakeLocked()
		return nil
	}

	step(0, "register w1", register("w1"))
	step(0, "register w2", register("w2"))
	step(0, "start", d.Start)
	step(10, "instance 0 activates: leases 1, 2", wake)
	step(11.2, "transfer on lease 1", transfer("a1", 1, 1.2))
	step(21.5, "lease 1 completes: lease 3", complete("a1", 1, done))
	step(22, "transfer on running lease 2", transfer("a1", 2, 0.8))
	step(25, "lease 2 fails: lease 4", complete("a1", 2, CompleteReport{Failed: true, Error: "boom"}))
	step(30, "tick 1 launches instance 1", wake)
	step(31, "backoff over: task 1 requeued", wake)
	step(40, "instance 1 activates: leases 5, 6", wake)
	step(41, "transfer on lease 5", transfer("a2", 5, 0.5))
	step(50, "w1 reconnects", register("w1"))
	step(60, "tick 2 releases instance 1 at its boundary", wake)
	step(70, "lease 3 completes: lease 7", complete("a1", 3, done))
	step(90, "tick 3 holds", wake)
	step(100, "boundary: instance 1 released, leases 5, 6 reclaimed", wake)
	step(105, "lease 4 completes: lease 8", complete("a1", 4, done))
	step(120, "tick 4 launches instances 2, 3", wake)
	step(130, "instance 2 activates: lease 9", wake)
	step(160, "tick 5 holds; instance 3 dead on arrival", wake)
	step(800, "w1 heartbeats", func() error { _, err := d.Poll(context.Background(), "a1", 0); return err })
	step(800, "ticks 6-26 hold; w2's heartbeat lapsed holding lease 9", wake)
	step(810, "tick 27 holds; backoff over: task 4 requeued", wake)
	step(820, "lease 7 completes: lease 10", complete("a1", 7, done))
	step(830, "lease 8 completes", complete("a1", 8, done))
	step(840, "lease 10 completes: run done", complete("a1", 10, done))

	if st := d.State(); st != Done {
		t.Fatalf("the scripted run ended %v: %v", st, runErr(d))
	}
	return d, sink, steps
}

// TestScriptedRunReplayParity: the finished scripted run — transfers observed
// mid-task and at completion, a failed attempt, a boundary release — folds
// back from its journal to exactly the state the live dispatcher holds.
func TestScriptedRunReplayParity(t *testing.T) {
	d, sink, _ := runScript(t)
	assertReplayParity(t, d, sink.Records)
	if c := d.Counters(); c.LeasesGranted != 10 || c.LeasesCompleted != 6 || c.LeasesReclaimed != 4 || c.LeasesLost != 0 ||
		c.AgentsFailed != 1 || c.DOAWriteoffs != 1 {
		t.Fatalf("the script did not take the path it describes: %+v", c)
	}
}

// TestEveryJournalPrefixRecovers: a crash can cut the journal after any
// record, also between the records of one transition (agent-failed before the
// reclaims it causes, a reclaim before its requeue). Every prefix of the
// scripted journal must fold without a divergence error to the assignment
// state ReplayAssignments — the independent reference — reads from it, and to
// the live dispatcher's whole state wherever the prefix ends on a call
// boundary; and a dispatcher recovered from it must come up with no task
// leased to an agent that is gone.
func TestEveryJournalPrefixRecovers(t *testing.T) {
	d, sink, steps := runScript(t)
	recs := sink.Records()
	liveAt := make(map[int]string, len(steps))
	for _, s := range steps {
		liveAt[s.records] = s.dump
	}
	for k := 1; k <= len(recs); k++ {
		prefix := recs[:k]
		last := fmt.Sprintf("prefix %d (ends in %s)", k, prefix[k-1].Kind)
		want, err := ReplayAssignments(prefix)
		if err != nil {
			t.Fatal(err)
		}
		f, err := foldJournal(foldConfig(d), prefix)
		if err != nil {
			t.Fatalf("%s: %v", last, err)
		}
		if got := f.Assignments(); !got.Equal(want) {
			t.Fatalf("%s folds to %+v, ReplayAssignments reads %+v", last, got, want)
		}
		if live, ok := liveAt[k]; ok {
			if replayed := stateDump(f); replayed != live {
				t.Fatalf("%s does not fold to the live state of that moment: %s", last, firstDiff(replayed, live))
			}
		}
		if !recoverable(prefix) {
			continue
		}

		clk := &fakeClock{base: time.Unix(1_700_000_000, 0)}
		journal := &MemorySink{recs: append([]Record(nil), prefix...)}
		r, err := RecoverDispatcher(scriptedConfig(clk, journal), prefix)
		if err != nil {
			t.Fatalf("%s: recovery: %v", last, err)
		}
		got := r.Assignments()
		r.Abort("test cleanup")
		want, err = ReplayAssignments(journal.Records())
		if err != nil {
			t.Fatal(err)
		}
		if !got.Equal(want) {
			t.Fatalf("%s: recovered to %+v, its journal reads %+v", last, got, want)
		}
		for task, agent := range got.Leased {
			if !got.LiveAgents[agent] {
				t.Fatalf("%s: recovered with task %d leased to %s, which is gone", last, task, agent)
			}
		}
	}
}

// scriptedStream is the scripted run's record stream as the parent commit of
// the apply refactor wrote it: one line per record, kind agent lease task
// instance attempt detail, without seq, wall_ms and now_s. It was recorded by
// running this script against that commit's dispatcher and is not rewritten
// by any -update flag.
const scriptedStream = "testdata/scripted_stream.txt"

func streamLine(r Record) string {
	opt := func(p *int) string {
		if p == nil {
			return "-"
		}
		return fmt.Sprint(*p)
	}
	lease := "-"
	if r.Lease != nil {
		lease = fmt.Sprint(*r.Lease)
	}
	return fmt.Sprintf("%s agent=%q lease=%s task=%s instance=%s attempt=%d detail=%q",
		r.Kind, r.Agent, lease, opt(r.Task), opt(r.Instance), r.Attempt, r.Detail)
}

// TestScriptedRecordStream: routing every transition through apply reordered
// and dropped nothing. Apart from the two additions made with it — the
// lease-transfer records, and the task-failed detail on a lease-superseded
// record — the scripted run writes the record stream its parent commit wrote,
// plus one difference the due-instant wake made: that script fired timer
// callbacks by hand and skipped the control ticks due in between, while a
// wake runs one tick when any is due. Those ticks hold the pool, so each
// writes an empty decision.
func TestScriptedRecordStream(t *testing.T) {
	_, sink, _ := runScript(t)
	raw, err := os.ReadFile(scriptedStream)
	if err != nil {
		t.Fatal(err)
	}
	want := strings.Split(strings.TrimSuffix(string(raw), "\n"), "\n")
	const caughtUp = `decision agent="" lease=- task=- instance=- attempt=0 detail="launch=0 releases=0"`
	var got []string
	skipped := 0
	for _, r := range sink.Records() {
		if r.Kind == RecLeaseTransfer {
			continue
		}
		if r.Kind == RecLeaseSuperseded && r.Detail == reasonTaskFailed {
			r.Detail = ""
		}
		line := streamLine(r)
		if line == caughtUp && (len(got) >= len(want) || want[len(got)] != line) {
			skipped++
			continue
		}
		got = append(got, line)
	}
	if diff := firstDiff(strings.Join(got, "\n"), strings.Join(want, "\n")); diff != "" {
		t.Fatalf("the scripted run no longer writes the recorded stream: %s", diff)
	}
	// One tick at each of t=160 (tick 5 was due at 150), t=800 (ticks from
	// t=180 on were due) and t=810: a wake plans once on the current state.
	if skipped != 3 {
		t.Fatalf("%d caught-up ticks, want 3", skipped)
	}
}

// TestResumeReleasesBeforeActivating: a tick and an activation fall due in
// one wake, the tick comes first, and its decision releases the instance
// still pending. A crash between that decision and the release's records
// leaves a draining pending instance past its activation instant: recovery
// must release it, not activate it (and start billing it) first.
func TestResumeReleasesBeforeActivating(t *testing.T) {
	sink := &MemorySink{}
	cfg, clk := fakeClockConfig(Config{
		Workflow: flatWorkflow(2, 100),
		Controller: &scriptController{script: []sim.Decision{
			{Launch: 1},
			{Releases: []sim.ReleaseOrder{{Instance: 1}}},
		}},
		Cloud:     cloud.Config{SlotsPerInstance: 1, LagTime: 30, ChargingUnit: 60, MaxInstances: 2},
		Interval:  30,
		Timescale: 1,
		Journal:   sink,
		Spec:      []byte(`{}`),
	})
	d, err := NewDispatcher(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer d.Abort("test cleanup")
	for _, name := range []string{"w1", "w2"} {
		if _, err := d.Register(name, 1); err != nil {
			t.Fatal(err)
		}
	}
	if err := d.Start(); err != nil {
		t.Fatal(err)
	}
	wakeAt(d, clk, 30) // tick 1 launches instance 1, due to activate at 60
	wakeAt(d, clk, 60) // tick 2 releases it first
	recs := sink.Records()
	cut := -1
	for i, r := range recs {
		if r.Kind == RecDecision && strings.Contains(r.Detail, "releases=1") {
			cut = i + 1
		}
	}
	if cut < 0 || recs[cut].Kind != RecAgentParked {
		t.Fatalf("the release order is not followed by its release: %v", recs[cut:])
	}

	journal := &MemorySink{recs: append([]Record(nil), recs[:cut]...)}
	rcfg, _ := fakeClockConfig(cfg)
	rcfg.Journal = journal
	rcfg.Controller = &scriptController{script: cfg.Controller.(*scriptController).script}
	r, err := RecoverDispatcher(rcfg, recs[:cut])
	if err != nil {
		t.Fatal(err)
	}
	defer r.Abort("test cleanup")
	for _, rec := range journal.Records()[cut:] {
		if rec.Kind == RecInstanceActive && *rec.Instance == 1 {
			t.Fatalf("recovery activated the instance it was releasing: %v", journal.Records()[cut:])
		}
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if in := r.site.Instances()[1]; in.State != cloud.Terminated {
		t.Fatalf("instance 1 is %v after recovery, want released", in.State)
	}
}
