package exec

import (
	"encoding/json"
	"fmt"
	"path/filepath"
	"sort"
	"strings"
	"time"

	"repro/internal/cloud"
	"repro/internal/dag"
	"repro/internal/monitor"
	"repro/internal/sim"
	"repro/internal/simtime"
	"repro/internal/wal"
)

// This file is the dispatcher's crash-recovery path: a restarted wire-serve
// daemon scans its journal directory, replays each in-flight run's journal
// into a fresh dispatcher, and resumes the run where the crash left it. The
// journal is a total order over every assignment transition (records are
// appended under the dispatcher lock), so replaying it deterministically
// reproduces the ready queue, the lease table, the agent registry, the billing
// site, and the recorded decision stream. Whatever the journal cannot carry —
// wall-clock timers in flight at the crash — is conservatively re-armed:
// outstanding leases get fresh full-TTL deadlines, backoff requeues fire
// immediately, and boundary releases still due are rescheduled.

// Recover scans the registry's journal directory for runs that were in flight
// when the daemon died and resurrects each one under its original run ID.
// Individual journals that fail to replay are logged and skipped (the file is
// left in place for post-mortem); the error return is reserved for the
// directory scan itself. Returns how many runs were recovered.
func (g *Registry) Recover() (int, error) {
	if g.cfg.JournalDir == "" {
		return 0, nil
	}
	paths, err := filepath.Glob(filepath.Join(g.cfg.JournalDir, "live-*.jsonl"))
	if err != nil {
		return 0, err
	}
	sort.Strings(paths)
	n := 0
	for _, path := range paths {
		id := strings.TrimSuffix(filepath.Base(path), ".jsonl")
		recs, end, err := ReadJournal(path)
		if err != nil {
			g.cfg.Logf("live %s: recovery: %v", id, err)
			continue
		}
		if !recoverable(recs) {
			continue
		}
		g.mu.Lock()
		full := len(g.runs) >= g.cfg.MaxRuns
		_, exists := g.runs[id]
		g.mu.Unlock()
		if exists || full {
			g.cfg.Logf("live %s: recovery skipped (duplicate or run limit)", id)
			continue
		}
		d, sink, err := g.recoverOne(id, path, recs, end)
		if err != nil {
			g.cfg.Logf("live %s: recovery failed: %v", id, err)
			continue
		}
		g.mu.Lock()
		g.runs[id] = &runEntry{id: id, d: d, sink: sink}
		g.recovered++
		g.mu.Unlock()
		n++
		g.cfg.Logf("live %s: recovered from journal (%s, state %s, %d records)",
			id, d.Workflow().Name, d.State(), len(recs))
	}
	return n, nil
}

// recoverable reports whether a journal describes an in-flight run: it must
// open with a run-created record carrying the marshaled create request (the
// configuration source) and must not have reached a terminal state.
func recoverable(recs []Record) bool {
	if len(recs) == 0 || recs[0].Kind != RecRunCreated || len(recs[0].Spec) == 0 {
		return false
	}
	for _, r := range recs {
		if r.Kind == RecRunDone || r.Kind == RecRunFailed {
			return false
		}
	}
	return true
}

// recoverOne rebuilds one run from recs, the records ReadJournal decoded from
// path, and resumes its journal at end.
func (g *Registry) recoverOne(id, path string, recs []Record, end int64) (*Dispatcher, *FileSink, error) {
	var req CreateRunRequest
	if err := json.Unmarshal(recs[0].Spec, &req); err != nil {
		return nil, nil, fmt.Errorf("run spec: %w", err)
	}
	cfg, err := ConfigFromRequest(&req, g.cfg.Factory)
	if err != nil {
		return nil, nil, err
	}
	cfg.Logf = func(format string, args ...any) {
		g.cfg.Logf("live %s: "+format, append([]any{id}, args...)...)
	}
	if err := wal.Cut(path, end); err != nil {
		return nil, nil, err
	}
	sink, err := NewFileSink(path, g.cfg.Sync)
	if err != nil {
		return nil, nil, err
	}
	cfg.Journal = sink
	d, err := RecoverDispatcher(cfg, recs)
	if err != nil {
		sink.Close()
		return nil, nil, err
	}
	return d, sink, nil
}

// RecoverDispatcher rebuilds a dispatcher from a run's journal. The replay
// walks the records in order, reapplying every lifecycle transition to fresh
// state without re-journaling; cfg.Journal (the reopened sink) is attached
// only afterwards, so resume-time activity appends where the crash left off.
//
// A run that had started is resumed: the scaled clock restarts at the last
// recorded simulated instant (the downtime simply does not exist on the
// simulated axis), and the recorded decision stream is replayed through the
// controller via TwinVerify — which both certifies the journal byte-for-byte
// and rebuilds the controller's online state (prediction windows, OGD
// weights) to parity with the crashed process.
func RecoverDispatcher(cfg Config, recs []Record) (*Dispatcher, error) {
	sink := cfg.Journal
	cfg.Journal = nil
	cfg.Spec = nil // the run-created record already exists; do not re-journal it
	d, err := NewDispatcher(cfg)
	if err != nil {
		return nil, err
	}
	var (
		started bool
		startMs int64
		lastNow simtime.Time
		lastMs  int64
		lastSeq int64
		// releaseAt carries controller release orders whose boundary had not
		// arrived at the crash: the draining flag is not journaled directly,
		// so it is re-derived from the recorded decisions.
		releaseAt = make(map[cloud.InstanceID]simtime.Time)
	)
	for i, rec := range recs {
		if rec.NowS > lastNow {
			lastNow = rec.NowS
		}
		if rec.WallMs > lastMs {
			lastMs = rec.WallMs
		}
		if rec.Seq > lastSeq {
			lastSeq = rec.Seq
		}
		if err := d.replayRecord(rec, &started, &startMs, releaseAt); err != nil {
			return nil, fmt.Errorf("exec: recovery: record %d (%s): %w", i, rec.Kind, err)
		}
	}
	d.recomputeUnreachLocked()
	d.recSeq = lastSeq
	d.cfg.Journal = sink

	if len(d.records) > 0 {
		if err := TwinVerify(d.records, d.cfg.Controller); err != nil {
			return nil, fmt.Errorf("exec: recovery parity: %w", err)
		}
	}
	if d.pred != nil {
		for i := range d.records {
			var snap monitor.Snapshot
			if err := json.Unmarshal(d.records[i].Snapshot, &snap); err == nil {
				snap.Workflow = d.wf
				d.pred.Update(&snap)
			}
		}
	}
	if !started {
		return d, nil // never started: agents re-register, caller POSTs start
	}
	d.resume(lastNow, lastMs, startMs, len(recs), releaseAt)
	return d, nil
}

// instFor resolves a journal instance pointer to its record.
func (d *Dispatcher) instFor(p *int) *instRec {
	if p == nil {
		return nil
	}
	return d.insts[cloud.InstanceID(*p)]
}

// leaseFor resolves a journal lease pointer to a still-active lease.
func (d *Dispatcher) leaseFor(p *int64) (*lease, error) {
	if p == nil {
		return nil, fmt.Errorf("missing lease id")
	}
	l, ok := d.leases[*p]
	if !ok {
		return nil, fmt.Errorf("unknown lease %d", *p)
	}
	if l.state != leaseActive {
		return nil, fmt.Errorf("lease %d already retired", *p)
	}
	return l, nil
}

// replayRecord applies one journal record to the rebuilding dispatcher. It is
// the replay-side mirror of every journalLocked call site; divergence (a
// grant whose queue pop yields a different task, an unknown lease) aborts the
// recovery of this run rather than resurrecting corrupt state.
func (d *Dispatcher) replayRecord(rec Record, started *bool, startMs *int64, releaseAt map[cloud.InstanceID]simtime.Time) error {
	now := rec.NowS
	switch rec.Kind {
	case RecRunCreated, RecRunResumed:
		// Config was already rebuilt from the spec; resume markers from a
		// previous recovery are informational.

	case RecRunStarted:
		*started = true
		*startMs = rec.WallMs

	case RecAgentRegistered:
		a := &agentState{id: rec.Agent, name: rec.Detail, slots: rec.Slots,
			leases: make(map[int64]*lease)}
		if a.name == "" {
			a.name = a.id
		}
		d.agents[a.id] = a
		d.counters.AgentsRegistered++
		var n int
		if _, err := fmt.Sscanf(rec.Agent, "a%d", &n); err == nil && n > d.agentSeq {
			d.agentSeq = n
		}

	case RecAgentReconnected:
		if a := d.agents[rec.Agent]; a != nil {
			a.slots = rec.Slots
		}

	case RecAgentBound:
		a, ir := d.agents[rec.Agent], d.instFor(rec.Instance)
		if a == nil || ir == nil {
			return fmt.Errorf("bind references unknown agent %q or instance", rec.Agent)
		}
		a.inst, ir.agent = ir, a

	case RecAgentParked:
		if a := d.agents[rec.Agent]; a != nil && a.inst != nil {
			a.inst.agent = nil
			a.inst = nil
		}

	case RecAgentFailed:
		d.counters.AgentsFailed++
		if a := d.agents[rec.Agent]; a != nil {
			if a.inst != nil {
				a.inst.agent = nil
				a.inst = nil
				d.failures++
			}
			delete(d.agents, rec.Agent)
		}

	case RecAgentBlacklisted:
		// Re-blacklist by name for a full cooldown from the recovery wall
		// instant: conservative (the original window may have nearly
		// elapsed), but a worker that earned a bench stays benched.
		h := d.healthFor(rec.Agent)
		h.blacklistedUntil = d.cfg.now().Add(d.cfg.HealthCooldown)
		h.failures, h.completions = 0, 0
		d.counters.AgentsBlacklisted++

	case RecInstanceLaunch:
		in, err := d.site.Launch(now)
		if err != nil {
			return err
		}
		if rec.Instance == nil || cloud.InstanceID(*rec.Instance) != in.ID {
			return fmt.Errorf("replayed launch produced instance %d, journal disagrees", in.ID)
		}
		d.insts[in.ID] = &instRec{inst: in}
		d.launches++
		if held := d.site.Held(); held > d.peakPool {
			d.peakPool = held
		}

	case RecInstanceActive:
		ir := d.instFor(rec.Instance)
		if ir == nil {
			return fmt.Errorf("activation of unknown instance")
		}
		at := now
		if simtime.Before(at, ir.inst.ActiveAt) {
			at = ir.inst.ActiveAt
		}
		if err := d.site.Activate(ir.inst, at); err != nil {
			return err
		}

	case RecInstanceEnd, RecInstanceDOA:
		ir := d.instFor(rec.Instance)
		if ir == nil {
			return fmt.Errorf("termination of unknown instance")
		}
		if rec.Kind == RecInstanceDOA {
			d.counters.DOAWriteoffs++
		}
		if ir.agent != nil {
			ir.agent.inst = nil
			ir.agent = nil
		}
		if ir.inst.State != cloud.Terminated {
			at := now
			if ir.inst.State == cloud.Active && simtime.Before(at, ir.inst.ActiveAt) {
				at = ir.inst.ActiveAt
			}
			if err := d.site.Terminate(ir.inst, at); err != nil {
				return err
			}
		}

	case RecLeaseGranted, RecLeaseSpeculated:
		if rec.Lease == nil || rec.Task == nil {
			return fmt.Errorf("missing lease/task id")
		}
		a := d.agents[rec.Agent]
		if a == nil || a.inst == nil {
			return fmt.Errorf("grant on unknown or unbound agent %q", rec.Agent)
		}
		id := dag.TaskID(*rec.Task)
		ts := &d.tasks[id]
		var priority bool
		if rec.Kind == RecLeaseGranted {
			it, ok := d.queue.Pop()
			if !ok || it.Task != id {
				return fmt.Errorf("queue replay diverged: journal grants task %d, queue disagrees", id)
			}
			priority = it.Priority
		}
		l := &lease{
			id:        *rec.Lease,
			task:      id,
			agent:     a,
			grantedAt: now,
			delivered: true, // resume keeps delivery: a live agent reports, a dead one hits the TTL
			spec:      rec.Kind == RecLeaseSpeculated,
			attempt:   ts.failedAttempts + 1,
		}
		a.leases[l.id] = l
		d.leases[l.id] = l
		if l.id > d.leaseSeq {
			d.leaseSeq = l.id
		}
		d.counters.LeasesGranted++
		if l.spec {
			d.counters.SpeculationsLaunched++
			ts.specLease = l.id
		} else {
			ts.state = monitor.Running
			ts.priority = priority
			ts.startedAt = now
			ts.agent = a.id
			ts.instance = a.inst.inst.ID
			ts.leaseID = l.id
			ts.specLease = 0
			ts.pendingRequeue = false
			ts.transferObserved = false
			ts.transferTime = 0
		}

	case RecLeaseCompleted:
		l, err := d.leaseFor(rec.Lease)
		if err != nil {
			return err
		}
		a := l.agent
		l.state = leaseCompleted
		delete(a.leases, l.id)
		d.counters.LeasesCompleted++
		if l.spec {
			d.counters.SpeculationsWon++
		}
		d.healthFor(a.name).completions++
		ts := &d.tasks[l.task]
		ts.state = monitor.Completed
		ts.completedAt = now
		ts.execTime = rec.ExecS
		ts.transferTime = rec.TransferS
		ts.agent = a.id
		if a.inst != nil {
			ts.instance = a.inst.inst.ID
			a.inst.inst.BusySlotSeconds += rec.ExecS + rec.TransferS
		}
		ts.leaseID = l.id
		ts.specLease = 0
		ts.transferObserved = true
		ts.transferObservedAt = now
		d.completed++
		for _, s := range d.wf.Task(l.task).Succs {
			ss := &d.tasks[s]
			ss.waiting--
			if ss.waiting == 0 {
				d.markReadyLocked(s, now)
			}
		}

	case RecLeaseReclaimed:
		l, err := d.leaseFor(rec.Lease)
		if err != nil {
			return err
		}
		l.state = leaseReclaimed
		delete(l.agent.leases, l.id)
		d.counters.LeasesReclaimed++
		if l.agent.inst != nil {
			l.agent.inst.inst.BusySlotSeconds += now - l.grantedAt
		}
		ts := &d.tasks[l.task]
		ts.restarts++
		d.restarts++
		ts.failedAttempts = rec.Attempt
		ts.state = monitor.Ready
		ts.readyAt = now
		ts.agent = ""
		ts.leaseID = 0
		ts.specLease = 0
		ts.transferObserved = false
		ts.transferTime = 0
		// Cleared by the task-requeued or task-quarantined record that
		// followed; if the crash beat the backoff timer, resume requeues the
		// task immediately.
		ts.pendingRequeue = true

	case RecLeaseSuperseded:
		l, err := d.leaseFor(rec.Lease)
		if err != nil {
			return err
		}
		l.state = leaseSuperseded
		delete(l.agent.leases, l.id)
		if l.agent.inst != nil {
			l.agent.inst.inst.BusySlotSeconds += now - l.grantedAt
		}
		d.counters.LeasesSuperseded++
		if l.spec {
			d.counters.SpeculationsWasted++
		}
		ts := &d.tasks[l.task]
		if ts.specLease == l.id {
			ts.specLease = 0
		} else if ts.leaseID == l.id {
			if surv, ok := d.leases[ts.specLease]; ok && surv.state == leaseActive {
				ts.leaseID = surv.id
				ts.specLease = 0
				ts.agent = surv.agent.id
				if surv.agent.inst != nil {
					ts.instance = surv.agent.inst.inst.ID
				}
				ts.startedAt = surv.grantedAt
				ts.transferObserved = false
				ts.transferTime = 0
			} else {
				ts.specLease = 0
			}
		}

	case RecTaskRequeued:
		if rec.Task == nil {
			return fmt.Errorf("missing task id")
		}
		id := dag.TaskID(*rec.Task)
		ts := &d.tasks[id]
		ts.pendingRequeue = false
		ts.readyAt = now
		d.queue.Requeue(id, d.wf.Task(id).Stage, now, ts.priority)

	case RecTaskQuarantined:
		if rec.Task == nil {
			return fmt.Errorf("missing task id")
		}
		ts := &d.tasks[*rec.Task]
		ts.state = monitor.Quarantined
		ts.pendingRequeue = false
		ts.failedAttempts = rec.Attempt
		d.counters.QuarantinedTasks++

	case RecDecision:
		d.decisions++
		d.records = append(d.records, PlanRecord{
			Seq:      d.decisions,
			NowS:     float64(now),
			Snapshot: rec.Snapshot,
			Decision: rec.Decision,
		})
		d.lastTick = now
		var dec sim.Decision
		if err := json.Unmarshal(rec.Decision, &dec); err != nil {
			return fmt.Errorf("decision: %w", err)
		}
		// Launches are journaled as their own records; release orders leave
		// only a draining flag plus a future boundary, so re-derive those.
		for _, ro := range dec.Releases {
			ir := d.insts[ro.Instance]
			if ir == nil || ir.inst.State == cloud.Terminated || ir.draining {
				continue
			}
			ir.draining = true
			at := now
			if ro.AtBoundary && ir.inst.State == cloud.Active {
				at = ir.inst.NextChargeBoundary(now)
			}
			releaseAt[ro.Instance] = at
		}

	case RecRunDone, RecRunFailed:
		return fmt.Errorf("terminal record in a journal selected for recovery")

	default:
		// Unknown kinds from newer builds are skipped, like ReplayAssignments.
	}
	return nil
}

// resume flips a replayed dispatcher back to Running: the clock continues at
// the last recorded simulated instant, every timer the crash destroyed is
// re-armed, and interrupted backoff requeues fire immediately.
func (d *Dispatcher) resume(lastNow simtime.Time, lastMs, startMs int64, replayed int, releaseAt map[cloud.InstanceID]simtime.Time) {
	d.mu.Lock()
	defer d.mu.Unlock()
	d.state = Running
	d.clock.ResumeAt(lastNow)
	wallNow := d.cfg.now()
	// Re-anchor the wall origin so journal WallMs stays monotone across the
	// restart and WallElapsedMs excludes the downtime, matching the clock.
	d.createdWall = wallNow.Add(-time.Duration(lastMs) * time.Millisecond)
	d.startWall = d.createdWall.Add(time.Duration(startMs) * time.Millisecond)
	now := d.clock.Now()
	d.journalLocked(Record{Kind: RecRunResumed, NowS: now,
		Detail: fmt.Sprintf("replayed %d records", replayed)})
	d.cfg.Logf("exec: resumed at %.1f sim-s: %d/%d tasks done, %d leases outstanding, %d agents",
		now, d.completed, d.wf.NumTasks(),
		d.counters.LeasesGranted-d.counters.LeasesCompleted-d.counters.LeasesReclaimed-d.counters.LeasesSuperseded,
		len(d.agents))

	// Every known agent gets a full heartbeat TTL to reconnect before the
	// reaper declares it dead and reclaims its leases.
	for _, a := range d.agents {
		a.lastSeen = wallNow
	}
	// Outstanding leases get fresh full-TTL deadlines: a surviving agent will
	// report (identity intact), a restarted one re-registers by name and has
	// them reissued, a dead one lets the TTL reclaim them.
	for _, l := range sortedLeases(d.leases) {
		if l.state != leaseActive {
			continue
		}
		t := d.wf.Task(l.task)
		expected := d.clock.WallDuration(t.ExecTime + t.TransferTime)
		ttl := time.Duration(float64(expected)*d.cfg.LeaseFactor) + d.cfg.LeaseSlack
		l.deadline = wallNow.Add(ttl)
		lid := l.id
		l.timer = time.AfterFunc(ttl, func() { d.onLeaseExpired(lid) })
	}
	// Pending instances re-arm activation and DOA timers (WallUntil clamps a
	// boundary that passed during the downtime to fire immediately).
	for id, ir := range d.insts {
		if ir.inst.State != cloud.Pending {
			continue
		}
		iid := id
		time.AfterFunc(d.clock.WallUntil(ir.inst.ActiveAt), func() { d.onActivation(iid) })
		time.AfterFunc(d.clock.WallUntil(ir.inst.ActiveAt+d.cfg.DOAGrace), func() { d.onDOACheck(iid) })
	}
	// Controller releases whose charging boundary had not arrived: release
	// now if the boundary passed during the downtime, else re-arm the timer.
	ids := make([]int, 0, len(releaseAt))
	for id := range releaseAt {
		ids = append(ids, int(id))
	}
	sort.Ints(ids)
	for _, i := range ids {
		id := cloud.InstanceID(i)
		ir := d.insts[id]
		if ir == nil || ir.inst.State == cloud.Terminated {
			continue
		}
		at := releaseAt[id]
		if simtime.AtOrBefore(at, now) {
			d.releaseLocked(ir, now)
			continue
		}
		rec := ir
		ir.termTime = time.AfterFunc(d.clock.WallUntil(at), func() {
			d.mu.Lock()
			defer d.mu.Unlock()
			if d.state != Running {
				return
			}
			d.releaseLocked(rec, d.clock.Now())
		})
	}
	// Failed attempts that were waiting out a backoff delay at the crash
	// requeue immediately — the downtime more than covered the delay.
	for i := range d.tasks {
		ts := &d.tasks[i]
		if ts.pendingRequeue && ts.state == monitor.Ready {
			d.requeueLocked(dag.TaskID(i), now)
		}
	}
	d.tickSeq = int(float64(now)/float64(d.cfg.Interval)) + 1
	d.tickTimer = time.AfterFunc(d.clock.WallUntil(simtime.Time(d.tickSeq)*simtime.Time(d.cfg.Interval)), d.onTick)
	reap := d.cfg.HeartbeatTTL / 2
	if reap < 50*time.Millisecond {
		reap = 50 * time.Millisecond
	}
	d.reapTimer = time.AfterFunc(reap, d.onReap)
	remaining := d.cfg.MaxWall - wallNow.Sub(d.startWall)
	if remaining < 5*time.Second {
		remaining = 5 * time.Second
	}
	d.wallTimer = time.AfterFunc(remaining, func() {
		d.mu.Lock()
		defer d.mu.Unlock()
		if d.state != Running {
			return
		}
		d.failLocked(fmt.Errorf("exec: run exceeded wall horizon %v with %d/%d tasks done",
			d.cfg.MaxWall, d.completed, d.wf.NumTasks()))
	})
	d.dispatchLocked()
}
