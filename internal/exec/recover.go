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
	"repro/internal/wal"
	"repro/internal/workloads"
)

// This file is the dispatcher's crash-recovery path: a restarted wire-serve
// daemon scans its journal directory, folds each in-flight run's journal into
// a fresh dispatcher, and resumes the run where the crash left it. The
// journal is a total order over every transition (a record is applied and
// appended under the dispatcher lock), and recovery applies it with the very
// function the live calls used (Dispatcher.apply), so the ready queue, the
// lease table, the agent registry, the billing site, and the recorded
// decision stream come back as the crashed process held them. Whatever the
// journal cannot carry — the wall-clock due instants in flight at the crash —
// resume sets conservatively: outstanding leases get fresh full-TTL
// deadlines, backoff requeues are due at once, and one wake fires whatever
// the journaled instants (activations, releases) make due.

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
	var wf *dag.Workflow
	var err error
	if digest := recs[0].WorkflowDigest; digest != "" {
		// A catalogue workflow is held to the digest it was journaled with:
		// a generator that changed since would resume the run on another DAG.
		wf, err = workloads.Regenerate(req.WorkflowKey, req.WorkflowSeed, digest)
	} else {
		wf, _, err = workloads.Resolve(req.Workflow, req.WorkflowKey, req.WorkflowSeed)
	}
	if err != nil {
		return nil, nil, fmt.Errorf("workflow: %w", err)
	}
	cfg, err := configFor(&req, wf, g.cfg.Factory)
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

// RecoverDispatcher rebuilds a dispatcher from a run's journal: a fresh
// dispatcher with every record applied in order. cfg.Journal is the reopened
// sink; applying a record does not append it, so what the resumed run writes
// lands where the crash left off.
//
// A run that had started is resumed: the scaled clock restarts at the last
// recorded simulated instant (the downtime simply does not exist on the
// simulated axis), and the recorded decision stream is replayed through the
// controller via TwinVerify — which both certifies the journal byte-for-byte
// and rebuilds the controller's online state (prediction windows, OGD
// weights) to parity with the crashed process.
func RecoverDispatcher(cfg Config, recs []Record) (*Dispatcher, error) {
	d, err := foldJournal(cfg, recs)
	if err != nil {
		return nil, err
	}
	if d.state == Done || d.state == Failed {
		return nil, fmt.Errorf("exec: recovery: terminal record in a journal selected for recovery")
	}
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
	if d.state == Running { // else never started: agents re-register, caller POSTs start
		d.resume(len(recs))
	}
	return d, nil
}

// foldJournal returns the journaled state recs describe, with no timer armed
// and nothing appended: the run as it stood at the last record.
func foldJournal(cfg Config, recs []Record) (*Dispatcher, error) {
	cfg.Spec = nil // the run-created record already exists; do not journal it again
	d, err := NewDispatcher(cfg)
	if err != nil {
		return nil, err
	}
	for i, rec := range recs {
		if err := d.apply(rec); err != nil {
			return nil, fmt.Errorf("exec: recovery: record %d (%s): %w", i, rec.Kind, err)
		}
	}
	return d, nil
}

// resume sets a folded run going again: the clock continues at the last
// recorded simulated instant, the wall-clock due instants the crash lost are
// set afresh, and a transition the crash cut between two of its records is
// finished.
func (d *Dispatcher) resume(replayed int) {
	d.mu.Lock()
	defer d.mu.Unlock()
	d.clock.ResumeAt(d.lastNow)
	wallNow := d.cfg.now()
	// Re-anchor the wall origin so journal WallMs stays monotone across the
	// restart and WallElapsedMs excludes the downtime, matching the clock.
	d.createdWall = wallNow.Add(-time.Duration(d.lastMs) * time.Millisecond)
	d.startWall = d.createdWall.Add(time.Duration(d.startMs) * time.Millisecond)
	now := d.clock.Now()
	d.commitLocked(Record{Kind: RecRunResumed, NowS: now,
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
	// A worker that earned a bench stays benched: a full cooldown from now,
	// conservative since the original window may have nearly elapsed.
	for _, h := range d.health {
		if h.benched {
			h.blacklistedUntil = wallNow.Add(d.cfg.healthCooldown)
		}
	}
	// Outstanding leases count as delivered and get fresh full-TTL deadlines:
	// a surviving agent will report (identity intact), a restarted one
	// re-registers by name and has them reissued, a dead one lets the TTL
	// reclaim them. A lease whose agent already failed lost its retirement
	// record to the crash.
	for _, l := range sortedLeases(d.leases) {
		switch {
		case l.state != leaseActive:
		case l.agent.gone:
			d.retireLocked(l, now, true, "agent-failed")
		default:
			l.delivered = true
			d.leaseDeadlineLocked(l)
		}
	}
	for _, in := range d.site.Instances() {
		if ir := d.insts[in.ID]; in.State == cloud.Active && ir.agent == nil {
			// Its agent failed or was parked and the crash beat the
			// instance-terminated record.
			d.terminateInstLocked(ir, now)
		}
	}
	// Failed attempts that were waiting out a backoff delay at the crash
	// requeue at once — the downtime more than covered the delay.
	for i := range d.tasks {
		d.tasks[i].requeueAt = wallNow
	}
	d.tickSeq = d.nextTickSeq(now)
	d.horizon = wallNow.Add(max(d.cfg.MaxWall-wallNow.Sub(d.startWall), 5*time.Second))
	d.nextReap = wallNow.Add(d.reapEvery())
	d.wakeLocked()
	d.dispatchLocked()
}
