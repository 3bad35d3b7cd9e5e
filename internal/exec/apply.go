package exec

import (
	"encoding/json"
	"fmt"

	"repro/internal/cloud"
	"repro/internal/dag"
	"repro/internal/monitor"
	"repro/internal/sim"
	"repro/internal/simtime"
)

// This file is the dispatcher's transition function. A run's journaled state
// — agents, instances and the billing site, leases, per-task state, the ready
// queue, health counts, counters, the decision stream, release orders — is
// the fold of apply over its journal, starting from initTasks. A live call
// folds each record in through commitLocked the moment it is written; crash
// recovery folds the same records from the file. Nothing else assigns that
// state, so the two cannot drift.

// reasonTaskFailed is the detail of a lease-reclaimed or lease-superseded
// record whose attempt ended in a failed completion report. It is the one
// retirement that debits the reporting agent's health on its own: the leases
// an agent failure retires were debited by its agent-failed record.
const reasonTaskFailed = "task-failed"

// initTasks is the fold's initial value: every task blocked behind its
// dependencies, the roots ready at time zero.
func (d *Dispatcher) initTasks() {
	for _, t := range d.wf.Tasks {
		d.tasks[t.ID].waiting = len(t.Deps)
		d.tasks[t.ID].state = monitor.Blocked
	}
	for _, id := range d.wf.Roots() {
		d.markReady(id, 0)
	}
}

func (d *Dispatcher) markReady(id dag.TaskID, now simtime.Time) {
	ts := &d.tasks[id]
	ts.state = monitor.Ready
	ts.readyAt = now
	d.queue.Push(id, d.wf.Task(id).Stage, now)
}

// apply folds one journal record into the run. It reads no clock, arms no
// timer, emits no event, logs nothing and journals nothing; it needs the
// dispatcher lock only because live calls share the state. A record that does
// not fit the state it meets (a grant whose task is not the queue's next, an
// unknown lease) is an error: recovery gives up on the run rather than
// resurrect corrupt state, a live call fails it. Unknown kinds from newer
// builds are skipped, as ReplayAssignments skips them.
func (d *Dispatcher) apply(rec Record) error {
	now := rec.NowS
	switch rec.Kind {
	case RecRunStarted:
		d.state = Running
		d.startMs = rec.WallMs

	case RecRunDone:
		d.state, d.doneAt = Done, now

	case RecRunFailed:
		d.state, d.doneAt = Failed, now

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
		if a := d.agents[rec.Agent]; a != nil {
			d.unbind(a.inst)
		}

	case RecAgentFailed:
		// The agent leaves the registry and its instance fails with it. The
		// leases it held stay active until their own reclaimed or superseded
		// records, which follow; a journal cut between the two is finished by
		// resume.
		d.counters.AgentsFailed++
		a := d.agents[rec.Agent]
		if a == nil {
			break
		}
		a.gone = true
		d.healthFor(a.name).failures += 1 + int64(len(a.leases))
		if a.inst != nil {
			d.unbind(a.inst)
			d.failures++
		}
		delete(d.agents, a.id)

	case RecAgentBlacklisted:
		// The record names the worker, not the registration. The cooldown
		// window itself is wall-clock state: the live call opens it, resume
		// reopens it for every benched worker.
		h := d.healthFor(rec.Agent)
		h.failures, h.completions = 0, 0
		h.benched = true
		d.counters.AgentsBlacklisted++

	case RecInstanceLaunch:
		in, err := d.site.Launch(now)
		if err != nil {
			return err
		}
		if rec.Instance == nil || cloud.InstanceID(*rec.Instance) != in.ID {
			return fmt.Errorf("launch produced instance %d, the record disagrees", in.ID)
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
		if err := d.site.Activate(ir.inst, now); err != nil {
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
		d.unbind(ir)
		if ir.inst.State != cloud.Terminated {
			at := now
			if ir.inst.State == cloud.Active && simtime.Before(at, ir.inst.ActiveAt) {
				at = ir.inst.ActiveAt // billing cannot stop before it started
			}
			if err := d.site.Terminate(ir.inst, at); err != nil {
				return err
			}
		}

	case RecLeaseGranted, RecLeaseSpeculated:
		if rec.Lease == nil {
			return fmt.Errorf("missing lease id")
		}
		id, ts, err := d.taskFor(rec.Task)
		if err != nil {
			return err
		}
		a := d.agents[rec.Agent]
		if a == nil || a.inst == nil {
			return fmt.Errorf("grant on unknown or unbound agent %q", rec.Agent)
		}
		l := &lease{
			id:        *rec.Lease,
			task:      id,
			agent:     a,
			inst:      a.inst,
			grantedAt: now,
			spec:      rec.Kind == RecLeaseSpeculated,
			attempt:   ts.failedAttempts + 1,
		}
		if l.spec {
			ts.specLease = l.id
			d.counters.SpeculationsLaunched++
		} else {
			it, ok := d.queue.Peek()
			if !ok || it.Task != id {
				return fmt.Errorf("the record grants task %d, the ready queue disagrees", id)
			}
			d.queue.Pop()
			ts.state = monitor.Running
			ts.priority = it.Priority
			ts.startedAt = now
			ts.agent = a.id
			ts.instance = a.inst.inst.ID
			ts.leaseID = l.id
			ts.specLease = 0
			ts.pendingRequeue = false
			ts.transferObserved = false
			ts.transferTime = 0
		}
		a.leases[l.id] = l
		d.leases[l.id] = l
		if l.id > d.leaseSeq {
			d.leaseSeq = l.id
		}
		d.counters.LeasesGranted++

	case RecLeaseTransfer:
		l, err := d.leaseFor(rec.Lease)
		if err != nil {
			return err
		}
		ts := &d.tasks[l.task]
		ts.transferObserved = true
		ts.transferTime = rec.TransferS
		ts.transferObservedAt = now

	case RecLeaseCompleted:
		l, err := d.leaseFor(rec.Lease)
		if err != nil {
			return err
		}
		l.state = leaseCompleted
		delete(l.agent.leases, l.id)
		d.counters.LeasesCompleted++
		if l.spec {
			d.counters.SpeculationsWon++
		}
		d.healthFor(l.agent.name).completions++
		ts := &d.tasks[l.task]
		ts.state = monitor.Completed
		ts.completedAt = now
		ts.execTime = rec.ExecS
		ts.transferTime = rec.TransferS
		ts.agent = l.agent.id
		ts.instance = l.inst.inst.ID
		ts.leaseID = l.id
		ts.specLease = 0
		if !ts.transferObserved { // a mid-task report keeps its own instant
			ts.transferObserved = true
			ts.transferObservedAt = now
		}
		l.inst.inst.BusySlotSeconds += rec.ExecS + rec.TransferS
		d.completed++
		for _, s := range d.wf.Task(l.task).Succs {
			ss := &d.tasks[s]
			ss.waiting--
			if ss.waiting == 0 {
				d.markReady(s, now)
			}
		}

	case RecLeaseReclaimed:
		// The task is ready again but not queued: its task-requeued or
		// task-quarantined record follows, after the backoff if an attempt
		// was burned. If the crash beat the backoff timer, resume requeues.
		l, err := d.leaseFor(rec.Lease)
		if err != nil {
			return err
		}
		d.retire(l, leaseReclaimed, rec)
		d.counters.LeasesReclaimed++
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
		ts.pendingRequeue = true

	case RecLeaseSuperseded:
		// The task is not requeued: it still runs, or already finished, on
		// its other copy. When the primary lost, the surviving duplicate is
		// promoted to the task's lease of record.
		l, err := d.leaseFor(rec.Lease)
		if err != nil {
			return err
		}
		d.retire(l, leaseSuperseded, rec)
		d.counters.LeasesSuperseded++
		if l.spec {
			d.counters.SpeculationsWasted++
		}
		ts := &d.tasks[l.task]
		if ts.leaseID == l.id {
			if surv, ok := d.leases[ts.specLease]; ok && surv.state == leaseActive {
				ts.leaseID = surv.id
				ts.agent = surv.agent.id
				ts.instance = surv.inst.inst.ID
				ts.startedAt = surv.grantedAt
				ts.transferObserved = false
				ts.transferTime = 0
			}
		}
		ts.specLease = 0

	case RecTaskRequeued:
		id, ts, err := d.taskFor(rec.Task)
		if err != nil {
			return err
		}
		ts.pendingRequeue = false
		ts.readyAt = now
		d.queue.Requeue(id, d.wf.Task(id).Stage, now, ts.priority)

	case RecTaskQuarantined:
		_, ts, err := d.taskFor(rec.Task)
		if err != nil {
			return err
		}
		ts.state = monitor.Quarantined
		ts.pendingRequeue = false
		ts.failedAttempts = rec.Attempt
		d.counters.QuarantinedTasks++
		d.recomputeUnreach()

	case RecDecision:
		var dec sim.Decision
		if err := json.Unmarshal(rec.Decision, &dec); err != nil {
			return fmt.Errorf("decision: %w", err)
		}
		d.decisions++
		d.records = append(d.records, PlanRecord{
			Seq:      d.decisions,
			NowS:     float64(now),
			Snapshot: rec.Snapshot,
			Decision: rec.Decision,
		})
		d.lastTick = now
		// Launches and binds have records of their own. A release order has
		// none until it is carried out, so the order itself — the instance
		// stops taking work now, and is released at its instant — is state.
		for _, ro := range dec.Releases {
			ir := d.insts[ro.Instance]
			if ir == nil || ir.inst.State == cloud.Terminated || ir.draining {
				continue
			}
			ir.draining = true
			ir.releaseAt = now
			if ro.AtBoundary && ir.inst.State == cloud.Active {
				ir.releaseAt = ir.inst.NextChargeBoundary(now)
			}
		}
	}
	if rec.Seq > d.recSeq {
		d.recSeq = rec.Seq
	}
	if rec.WallMs > d.lastMs {
		d.lastMs = rec.WallMs
	}
	if now > d.lastNow {
		d.lastNow = now
	}
	return nil
}

// retire moves an active lease to the terminal state its reclaimed or
// superseded record names: off its agent, the occupancy credited to the
// instance it ran on, and the agent's health debited if the attempt failed.
func (d *Dispatcher) retire(l *lease, to leaseState, rec Record) {
	l.state = to
	delete(l.agent.leases, l.id)
	l.inst.inst.BusySlotSeconds += rec.NowS - l.grantedAt
	if rec.Detail == reasonTaskFailed {
		d.healthFor(l.agent.name).failures++
	}
}

// unbind parts an instance and its agent, if it has one.
func (d *Dispatcher) unbind(ir *instRec) {
	if ir != nil && ir.agent != nil {
		ir.agent.inst = nil
		ir.agent = nil
	}
}

// instFor resolves a record's instance pointer, nil when it names none.
func (d *Dispatcher) instFor(p *int) *instRec {
	if p == nil {
		return nil
	}
	return d.insts[cloud.InstanceID(*p)]
}

// taskFor resolves a record's task pointer.
func (d *Dispatcher) taskFor(p *int) (dag.TaskID, *taskState, error) {
	if p == nil || *p < 0 || *p >= len(d.tasks) {
		return 0, nil, fmt.Errorf("missing or unknown task id")
	}
	return dag.TaskID(*p), &d.tasks[*p], nil
}

// leaseFor resolves a record's lease pointer to a still-active lease.
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

// healthFor returns (creating if needed) the named worker's health record.
func (d *Dispatcher) healthFor(name string) *agentHealth {
	h := d.health[name]
	if h == nil {
		h = &agentHealth{}
		d.health[name] = h
	}
	return h
}

// recomputeUnreach rebuilds the unreachable set: quarantined tasks plus every
// transitive successor (blocked forever behind the quarantine).
func (d *Dispatcher) recomputeUnreach() {
	d.unreach = make(map[dag.TaskID]bool)
	var visit func(id dag.TaskID)
	visit = func(id dag.TaskID) {
		if d.unreach[id] {
			return
		}
		d.unreach[id] = true
		for _, s := range d.wf.Task(id).Succs {
			visit(s)
		}
	}
	for i := range d.tasks {
		if d.tasks[i].state == monitor.Quarantined {
			visit(dag.TaskID(i))
		}
	}
}
