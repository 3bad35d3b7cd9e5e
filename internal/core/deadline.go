package core

import (
	"fmt"

	"repro/internal/monitor"
	"repro/internal/sim"
	"repro/internal/simtime"
	"repro/internal/steer"
)

// DeadlineConfig tunes the deadline controller.
type DeadlineConfig struct {
	// Deadline is the absolute completion target (seconds from run
	// start). Required.
	Deadline simtime.Time
	// Predictor, RestartFrac and MinPool behave as in Config.
	Config
	// Slack inflates the required capacity estimate to absorb prediction
	// error and dispatch drift (default 1.15).
	Slack float64
}

// DeadlineController is an extension beyond the paper: it inverts WIRE's
// objective. Where the resource-steering policy buys the shortest expected
// completion time whose instances stay busy a full charging unit, the
// deadline policy buys the *cheapest* pool expected to finish by a target
// time. It reuses the whole WIRE loop — online prediction (§III-B1) and the
// DAG lookahead (§III-B2) — and swaps only the sizing rule:
//
//	p = ceil( remaining work / (l · max(time left, critical path)) )
//
// with releases still taken only at charging boundaries under the restart
// threshold (Algorithm 2's shrink rules via steer.PlanTo). When the
// deadline is infeasible (time left below the predicted critical path) it
// degrades to the full site: the fastest it can do.
type DeadlineController struct {
	cfg  DeadlineConfig
	base *Controller
}

var _ sim.Controller = (*DeadlineController)(nil)

// NewDeadline returns a deadline controller.
func NewDeadline(cfg DeadlineConfig) *DeadlineController {
	if cfg.Slack <= 1 {
		cfg.Slack = 1.15
	}
	return &DeadlineController{cfg: cfg, base: New(cfg.Config)}
}

// Name implements sim.Controller.
func (d *DeadlineController) Name() string { return "deadline" }

// State captures the shared WIRE run state (prediction wavefront, per-stage
// models, last projected load) of the underlying controller.
func (d *DeadlineController) State() StateDump { return d.base.State() }

// Wavefront is the underlying controller's. The deadline policy sizes the
// pool from remaining occupancy and never annotates tasks, so it is empty.
func (d *DeadlineController) Wavefront() []Prediction { return d.base.Wavefront() }

// Plan implements sim.Controller.
func (d *DeadlineController) Plan(snap *monitor.Snapshot) sim.Decision {
	d.base.iters++
	pred := d.base.pred
	pred.Update(snap)

	// Remaining work and critical path over incomplete tasks, using the
	// online estimates (never ground truth).
	estimates := make([]float64, len(snap.Tasks))
	work := 0.0
	for i := range snap.Tasks {
		rec := &snap.Tasks[i]
		if rec.State == monitor.Completed {
			continue
		}
		rem, _ := pred.RemainingOccupancy(snap, rec.ID, snap.Now)
		estimates[rec.ID] = rem
		work += rem
	}
	critPath := remainingCriticalPath(snap, estimates)

	// Capacity takes effect one lag later.
	timeLeft := d.cfg.Deadline - (snap.Now + snap.Interval)
	var p int
	switch {
	case snap.Done():
		p = 0
	case timeLeft <= critPath:
		// Infeasible (or exactly critical): every slot helps.
		p = snap.MaxInstances
		if p == 0 {
			p = snap.HeldInstances() + 1
		}
	default:
		l := float64(snap.SlotsPerInstance)
		need := work * d.cfg.Slack / (l * timeLeft)
		p = int(need)
		if float64(p) < need {
			p++
		}
		// The critical path serializes at least one slot's worth.
		if p < 1 {
			p = 1
		}
	}

	load := d.base.proj.Project(snap, pred)
	cands := make([]steer.Candidate, 0, len(snap.Instances))
	for _, in := range snap.NonDrainingInstances() {
		cands = append(cands, steer.Candidate{
			ID:               in.ID,
			TimeToNextCharge: in.TimeToNextCharge,
			RestartCost:      load.RestartCost[in.ID],
		})
	}
	scfg := steer.FromSnapshot(snap)
	if d.cfg.RestartFrac > 0 {
		scfg.RestartFrac = d.cfg.RestartFrac
	}
	if d.cfg.MinPool > 0 {
		scfg.MinPool = d.cfg.MinPool
	}
	return steer.PlanTo(p, cands, scfg)
}

// remainingCriticalPath computes the longest estimate-weighted path over
// incomplete tasks.
func remainingCriticalPath(snap *monitor.Snapshot, estimates []float64) float64 {
	wf := snap.Workflow
	longest := make([]float64, len(estimates))
	best := 0.0
	for _, id := range wf.TopoOrder() {
		if snap.Task(id).State == monitor.Completed {
			continue
		}
		start := 0.0
		for _, dep := range wf.Task(id).Deps {
			if snap.Task(dep).State == monitor.Completed {
				continue
			}
			if longest[dep] > start {
				start = longest[dep]
			}
		}
		longest[id] = start + estimates[id]
		if longest[id] > best {
			best = longest[id]
		}
	}
	return best
}

// String implements fmt.Stringer for diagnostics.
func (d *DeadlineController) String() string {
	return fmt.Sprintf("deadline(%s)", simtime.FormatDuration(d.cfg.Deadline))
}
