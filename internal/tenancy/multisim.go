package tenancy

import (
	"fmt"
	"sort"

	"repro/internal/cloud"
	"repro/internal/core"
	"repro/internal/dist"
	"repro/internal/monitor"
	"repro/internal/sim"
	"repro/internal/simtime"
	"repro/internal/steer"
	"repro/internal/workloads"
)

// MultiConfig parameterizes a multi-run stream simulation: many independent
// sim runs interleaved at MAPE-interval granularity against one shared
// capacity and spend ledger.
//
// The interleaving model: every admitted run simulates on its own clock
// (offset by its admission time) and parks at each of its MAPE planning
// points; the coordinator processes parking points and arrivals in global
// time order, exchanging cross-run state (held instances, committed spend)
// exactly once per interval — the same cadence at which the paper's control
// loop observes the world. Runs never interact below interval granularity.
type MultiConfig struct {
	// Cloud is the per-run site template; MaxInstances is overridden with
	// the arbiter cap (the shared physical site). Runs plan once per lag.
	Cloud cloud.Config
	// Arbiter configures the cross-run policy, cap, and budget.
	Arbiter ArbiterConfig
	// SimSeed drives per-run simulation seeds, derived per arrival index.
	SimSeed int64
	// NewController builds each run's controller; admittedAt is the run's
	// start on the global clock, so per-arrival deadlines can be rebased
	// onto the run-local clock. Default: the deadline policy racing the
	// arrival's deadline (plain WIRE when the arrival has none) — each
	// run buys whatever meeting its deadline takes, and the cross-run
	// arbiter is what reins the aggregate back into cap and budget.
	NewController func(arr Arrival, admittedAt simtime.Time) sim.Controller
}

// Outcome is one arrival's fate.
type Outcome struct {
	Arrival     Arrival
	AdmittedAt  simtime.Time
	QueueDelayS float64
	CompletedAt simtime.Time
	Missed      bool
	Units       int
	Result      *sim.Result
}

// MultiResult summarizes one stream run.
type MultiResult struct {
	Policy string
	// Outcomes is sorted by arrival index.
	Outcomes []Outcome
	// TotalUnits is the aggregate spend in charging units.
	TotalUnits int
	// Misses counts runs completing after their deadline.
	Misses int
	// PeakHeld is the largest shared-pool occupancy observed at a
	// coordination point.
	PeakHeld int
	// ThrottledAdmissions counts arrivals deferred at least once by the
	// admission gate.
	ThrottledAdmissions int
	// QueueDelayMeanS is the mean admission delay.
	QueueDelayMeanS float64
	// MakespanS is the last completion instant on the global clock.
	MakespanS float64
}

// MissRate returns Misses over completed runs.
func (r *MultiResult) MissRate() float64 {
	if len(r.Outcomes) == 0 {
		return 0
	}
	return float64(r.Misses) / float64(len(r.Outcomes))
}

// runMsg is one run's report to the coordinator: a parking point (park set)
// or completion (res/err set). t is on the global clock.
type runMsg struct {
	park *RunStatus
	t    simtime.Time
	res  *sim.Result
	err  error
}

// runHandle is the coordinator's view of one admitted run.
type runHandle struct {
	id     int
	arr    Arrival
	start  simtime.Time
	acct   *Accountant
	msgc   chan runMsg
	grantc chan Grant
}

// arbCtrl wraps a run's controller with the grant protocol: at every Plan it
// parks (reporting status to the coordinator), blocks for its grant, then
// throttles the inner decision to the grant.
type arbCtrl struct {
	h         *runHandle
	inner     sim.Controller
	priorExec float64
}

func (c *arbCtrl) Name() string { return c.inner.Name() }

func (c *arbCtrl) Plan(snap *monitor.Snapshot) sim.Decision {
	st := c.status(snap)
	c.h.msgc <- runMsg{park: &st, t: c.h.start + simtime.Time(snap.Now)}
	g := <-c.h.grantc
	dec := c.inner.Plan(snap)
	return steer.Throttle(dec, snap.Instances, g.Target, g.MaxLaunch)
}

// status summarizes the snapshot for the arbiter. Remaining work uses the
// mean observed execution time once tasks complete, the catalog prior
// before — controllers (and the arbiter) never read ground truth.
func (c *arbCtrl) status(snap *monitor.Snapshot) RunStatus {
	sum, n := 0.0, 0
	for i := range snap.Tasks {
		if snap.Tasks[i].State == monitor.Completed {
			sum += float64(snap.Tasks[i].ExecTime)
			n++
		}
	}
	mean := c.priorExec
	if n > 0 {
		mean = sum / float64(n)
	}
	remaining := snap.RemainingTasks()
	return RunStatus{
		ID:        c.h.id,
		Tenant:    c.h.arr.Tenant,
		Held:      len(snap.Instances),
		Remaining: remaining,
		Slots:     snap.SlotsPerInstance,
		ArrivedAt: c.h.arr.Time,
		Deadline:  c.h.arr.Deadline(),
		EstWorkS:  float64(remaining) * mean,
	}
}

// arbiter is the stream's arbiter configuration with its defaults. The urgency
// floor defaults to one MAPE period: every run plans once per lag.
func (c MultiConfig) arbiter() (ArbiterConfig, error) {
	a := c.Arbiter
	if a.Interval <= 0 {
		a.Interval = c.Cloud.LagTime
	}
	return a.withDefaults()
}

// RunStream drives a whole arrival stream through the shared pool and
// returns per-run outcomes plus aggregate spend/miss metrics. The run is
// deterministic in (stream, MultiConfig): the coordinator is fully
// serialized — at most one run's simulator executes at any instant, and all
// cross-run reads happen while every run is parked.
func RunStream(stream *Stream, cfg MultiConfig) (*MultiResult, error) {
	acfg, err := cfg.arbiter()
	if err != nil {
		return nil, err
	}
	// Every arrival is checked before the first run starts: a run, once
	// admitted, is parked on its grant channel until the coordinator
	// releases it, so a later error return would leave it blocked.
	catalog := make(map[string]workloads.Run)
	for i, arr := range stream.Arrivals {
		if i > 0 && arr.Time < stream.Arrivals[i-1].Time {
			return nil, fmt.Errorf("tenancy: stream not sorted at arrival %d", i)
		}
		run, ok := workloads.ByKey(arr.WorkflowKey)
		if !ok {
			return nil, fmt.Errorf("tenancy: arrival %d has unknown workload %q", arr.Index, arr.WorkflowKey)
		}
		catalog[arr.WorkflowKey] = run
	}
	newCtrl := cfg.NewController
	if newCtrl == nil {
		newCtrl = func(arr Arrival, admittedAt simtime.Time) sim.Controller {
			if arr.DeadlineS <= 0 {
				return core.New(core.Config{})
			}
			// Rebase the arrival's absolute deadline onto the run-local
			// clock; queue delay eats slack, and a run admitted past its
			// deadline sees an infeasible target (the deadline policy then
			// races at full tilt — exactly the overspend the arbiter's
			// budget feedback exists to contain).
			return core.NewDeadline(core.DeadlineConfig{Deadline: arr.Deadline() - admittedAt})
		}
	}
	cloudCfg := cfg.Cloud
	cloudCfg.MaxInstances = acfg.Cap
	if err := cloudCfg.Validate(); err != nil {
		return nil, err
	}
	unit := cloudCfg.ChargingUnit

	active := make(map[int]*runHandle)
	pending := make(map[int]runMsg)
	outcomes := make([]Outcome, 0, len(stream.Arrivals))
	var waitq []Arrival
	deferred := make(map[int]bool)
	res := &MultiResult{Policy: acfg.Policy}
	next := 0
	now := simtime.Time(0)
	settledUnits := 0
	var firstErr error

	heldTotal := func() int {
		total := 0
		for _, h := range active {
			total += h.acct.Held()
		}
		return total
	}
	committed := func(at simtime.Time) int {
		total := settledUnits
		for _, h := range active {
			total += h.acct.Committed(at)
		}
		return total
	}
	admissible := func(at simtime.Time) bool {
		if acfg.Cap-heldTotal() < 1 {
			return false
		}
		if acfg.Policy != FCFS && acfg.BudgetUnits > 0 && committed(at)+1 > acfg.BudgetUnits {
			// Austerity exception: an idle site always admits, so the
			// stream can never stall below the budget line.
			return len(active) == 0
		}
		return true
	}
	admit := func(arr Arrival, at simtime.Time) {
		run := catalog[arr.WorkflowKey]
		wf := run.Generate(arr.WorkflowSeed)
		h := &runHandle{
			id:     arr.Index,
			arr:    arr,
			start:  at,
			acct:   NewAccountant(unit, at),
			msgc:   make(chan runMsg),
			grantc: make(chan Grant),
		}
		ctrl := &arbCtrl{h: h, inner: newCtrl(arr, at), priorExec: run.Spec.MeanExecTime()}
		simCfg := sim.Config{
			Cloud:    cloudCfg,
			Seed:     dist.DeriveSeed(cfg.SimSeed, "multisim", uint64(arr.Index)),
			Observer: h.acct.Observe,
		}
		active[h.id] = h
		go func() {
			r, err := sim.Run(wf, ctrl, simCfg)
			t := h.start
			if r != nil {
				t = h.start + simtime.Time(r.Makespan)
			}
			h.msgc <- runMsg{t: t, res: r, err: err}
		}()
		// The run executes until its first parking point (or completion,
		// for workflows shorter than one interval); everything else stays
		// parked meanwhile, so sim execution is fully serialized.
		pending[h.id] = <-h.msgc
		if ht := heldTotal(); ht > res.PeakHeld {
			res.PeakHeld = ht
		}
	}

	for next < len(stream.Arrivals) || len(waitq) > 0 || len(active) > 0 {
		// Candidate actions, processed in global-time order. Ties go to
		// run messages (they free capacity), then deferred admissions
		// (FIFO fairness), then fresh arrivals.
		msgID, msgAt, haveMsg := 0, simtime.Time(0), false
		for id, m := range pending {
			at := m.t
			if at < now {
				at = now
			}
			if !haveMsg || at < msgAt || (at == msgAt && id < msgID) {
				msgID, msgAt, haveMsg = id, at, true
			}
		}
		// The deferred queue admits FIFO, except under the urgency policy,
		// which admits earliest-deadline-first: when capacity frees, the
		// run that can least afford to keep waiting goes next.
		waitIdx := 0
		if acfg.Policy == Urgency {
			for i := 1; i < len(waitq); i++ {
				if waitq[i].Deadline() < waitq[waitIdx].Deadline() {
					waitIdx = i
				}
			}
		}
		waitAt, haveWait := simtime.Time(0), false
		if len(waitq) > 0 {
			waitAt = waitq[waitIdx].Time
			if waitAt < now {
				waitAt = now
			}
			haveWait = admissible(waitAt)
		}
		arrAt, haveArr := simtime.Time(0), false
		if next < len(stream.Arrivals) {
			arrAt = stream.Arrivals[next].Time
			if arrAt < now {
				arrAt = now
			}
			haveArr = true
		}

		switch {
		case haveMsg && (!haveWait || msgAt <= waitAt) && (!haveArr || msgAt <= arrAt):
			h := active[msgID]
			m := pending[msgID]
			now = msgAt
			if m.park == nil {
				// Completion: settle the ledger and record the outcome.
				delete(active, msgID)
				delete(pending, msgID)
				if m.err != nil {
					if firstErr == nil {
						firstErr = fmt.Errorf("tenancy: run %d (%s): %w", msgID, h.arr.WorkflowKey, m.err)
					}
					continue
				}
				if got := h.acct.Settled(); got != m.res.UnitsCharged {
					if firstErr == nil {
						firstErr = fmt.Errorf("tenancy: run %d ledger drift: accountant settled %d units, simulator charged %d", msgID, got, m.res.UnitsCharged)
					}
				}
				settledUnits += m.res.UnitsCharged
				missed := simtime.After(m.t, h.arr.Deadline())
				outcomes = append(outcomes, Outcome{
					Arrival:     h.arr,
					AdmittedAt:  h.start,
					QueueDelayS: float64(h.start - h.arr.Time),
					CompletedAt: m.t,
					Missed:      missed,
					Units:       m.res.UnitsCharged,
					Result:      m.res,
				})
				if missed {
					res.Misses++
				}
				if float64(m.t) > res.MakespanS {
					res.MakespanS = float64(m.t)
				}
				continue
			}
			// Parking point: apportion across every currently parked run
			// and release this one with its grant.
			statuses := make([]RunStatus, 0, len(pending))
			for _, pm := range pending {
				if pm.park != nil {
					statuses = append(statuses, *pm.park)
				}
			}
			ht := heldTotal()
			if ht > res.PeakHeld {
				res.PeakHeld = ht
			}
			grants := Apportion(acfg, statuses, committed(now), ht, now)
			h.grantc <- grants[msgID]
			pending[msgID] = <-h.msgc
			if ht := heldTotal(); ht > res.PeakHeld {
				res.PeakHeld = ht
			}
		case haveWait && (!haveArr || waitAt <= arrAt):
			arr := waitq[waitIdx]
			waitq = append(waitq[:waitIdx], waitq[waitIdx+1:]...)
			now = waitAt
			admit(arr, waitAt)
		case haveArr:
			arr := stream.Arrivals[next]
			next++
			now = arrAt
			if admissible(arrAt) {
				admit(arr, arrAt)
			} else {
				if !deferred[arr.Index] {
					deferred[arr.Index] = true
					res.ThrottledAdmissions++
				}
				waitq = append(waitq, arr)
			}
		default:
			// Only deferred arrivals remain but none is admissible with
			// no active runs — impossible by the austerity rule.
			return nil, fmt.Errorf("tenancy: coordinator stalled with %d deferred arrivals", len(waitq))
		}
	}

	sort.Slice(outcomes, func(i, j int) bool { return outcomes[i].Arrival.Index < outcomes[j].Arrival.Index })
	res.Outcomes = outcomes
	res.TotalUnits = settledUnits
	if len(outcomes) > 0 {
		sum := 0.0
		for _, o := range outcomes {
			sum += o.QueueDelayS
		}
		res.QueueDelayMeanS = sum / float64(len(outcomes))
	}
	if firstErr != nil {
		return res, firstErr
	}
	return res, nil
}
