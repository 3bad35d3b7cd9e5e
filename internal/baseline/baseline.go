// Package baseline implements the three comparator resource-management
// settings of §IV-C3:
//
//   - Static (full-site): a fixed pool at the site maximum, never resized.
//   - PureReactive: pool sized to the instantaneous active load, releases
//     applied immediately, billing-oblivious.
//   - ReactiveConserving: the same instantaneous load signal, but steered
//     through WIRE's charging-aware resource policy (Algorithms 2/3) —
//     isolating the value of WIRE's DAG-driven online prediction.
package baseline

import (
	"repro/internal/monitor"
	"repro/internal/sim"
	"repro/internal/stats"
	"repro/internal/steer"
)

// Static never changes the pool; pair it with sim.Config.InitialInstances
// set to the site maximum to reproduce the paper's full-site runs.
type Static struct{}

var _ sim.Controller = Static{}

// Name implements sim.Controller.
func (Static) Name() string { return "full-site" }

// Plan implements sim.Controller.
func (Static) Plan(*monitor.Snapshot) sim.Decision { return sim.Decision{} }

// PureReactive resizes the pool every interval to ceil(active/l), where
// active counts ready plus running tasks. It launches and releases eagerly
// and ignores charging units entirely; shrinking releases idle instances
// (never ones with running tasks) immediately.
type PureReactive struct{}

var _ sim.Controller = PureReactive{}

// Name implements sim.Controller.
func (PureReactive) Name() string { return "pure-reactive" }

// Plan implements sim.Controller.
func (PureReactive) Plan(snap *monitor.Snapshot) sim.Decision {
	l := snap.SlotsPerInstance
	target := (snap.ActiveLoad() + l - 1) / l
	if target < 1 {
		target = 1
	}
	if snap.MaxInstances > 0 && target > snap.MaxInstances {
		target = snap.MaxInstances
	}
	held := snap.NonDrainingInstances()
	m := len(held)
	switch {
	case target > m:
		return sim.Decision{Launch: target - m}
	case target < m:
		// Cancel pending instances first (free), then idle active ones.
		var rel []sim.ReleaseOrder
		need := m - target
		for _, in := range held {
			if need == 0 {
				break
			}
			if in.ActiveAt > snap.Now && len(in.Running) == 0 {
				rel = append(rel, sim.ReleaseOrder{Instance: in.ID})
				need--
			}
		}
		for _, in := range held {
			if need == 0 {
				break
			}
			if in.ActiveAt <= snap.Now && len(in.Running) == 0 {
				rel = append(rel, sim.ReleaseOrder{Instance: in.ID})
				need--
			}
		}
		return sim.Decision{Releases: rel}
	default:
		return sim.Decision{}
	}
}

// ReactiveConserving predicts the load from the current idle/running tasks
// only — no DAG lookahead, no per-stage models — and feeds it to the
// resource-steering policy. Each active task's occupancy is estimated at
// the global median of completed occupancies (falling back to the MAPE
// interval before any completion). The median is kept across Plans: each
// Plan folds in only the occupancies of the tasks completed since the last.
type ReactiveConserving struct {
	// seen holds, per task, the completion the median holds.
	seen      []seenOcc
	completed stats.OrderStats

	// Scratch of one Plan.
	batch     []float64
	remaining []float64

	resets int // folds started again from empty on non-monotonic input
}

// seenOcc is what the kept median holds of one task: whether it had
// completed, and with which occupancy.
type seenOcc struct {
	done bool
	occ  float64
}

var _ sim.Controller = (*ReactiveConserving)(nil)

// Name implements sim.Controller.
func (*ReactiveConserving) Name() string { return "reactive-conserving" }

// Plan implements sim.Controller.
func (rc *ReactiveConserving) Plan(snap *monitor.Snapshot) sim.Decision {
	if len(rc.seen) != len(snap.Tasks) {
		rc.reset(len(snap.Tasks))
	}
	if !rc.fold(snap) {
		// The snapshot does not extend what the median holds: fold it again
		// from empty, through the same pass.
		rc.reset(len(snap.Tasks))
		rc.fold(snap)
	}
	est, ok := rc.completed.Median()
	if !ok {
		est = snap.Interval
	}
	return rc.planAt(snap, est)
}

// fold merges the occupancies of the tasks completed since the last Plan into
// the kept median. It reports false, leaving the fold half done for the
// caller to reset, when a completed record left Completed or its occupancy
// changed.
func (rc *ReactiveConserving) fold(snap *monitor.Snapshot) bool {
	rc.batch = rc.batch[:0]
	for i := range snap.Tasks {
		rec := &snap.Tasks[i]
		seen := &rc.seen[i]
		switch {
		case seen.done:
			if rec.State != monitor.Completed || rec.Occupancy() != seen.occ {
				rc.resets++
				return false
			}
		case rec.State == monitor.Completed:
			*seen = seenOcc{done: true, occ: rec.Occupancy()}
			rc.batch = append(rc.batch, seen.occ)
		}
	}
	rc.completed.Merge(rc.batch...)
	return true
}

// reset empties the kept median for a run of n tasks.
func (rc *ReactiveConserving) reset(n int) {
	if cap(rc.seen) < n {
		rc.seen = make([]seenOcc, n)
	} else {
		rc.seen = rc.seen[:n]
		clear(rc.seen)
	}
	rc.completed.Reset()
}

// planAt steers the pool for the current ready and running tasks, each
// estimated at occupancy est.
func (rc *ReactiveConserving) planAt(snap *monitor.Snapshot, est float64) sim.Decision {
	// Upcoming load = the current ready/running tasks at their estimated
	// remaining occupancy; nothing beyond the observable present.
	remaining := rc.remaining[:0]
	for i := range snap.Tasks {
		rec := &snap.Tasks[i]
		switch rec.State {
		case monitor.Ready:
			remaining = append(remaining, est)
		case monitor.Running:
			rem := est - rec.Elapsed
			if rem < 0 {
				rem = 0
			}
			remaining = append(remaining, rem)
		}
	}
	rc.remaining = remaining

	cands := make([]steer.Candidate, 0, len(snap.Instances))
	for _, in := range snap.NonDrainingInstances() {
		c := steer.Candidate{ID: in.ID, TimeToNextCharge: in.TimeToNextCharge}
		for _, tid := range in.Running {
			sunk := snap.Task(tid).Elapsed + snap.Interval
			if sunk > c.RestartCost {
				c.RestartCost = sunk
			}
		}
		cands = append(cands, c)
	}

	cfg := steer.FromSnapshot(snap)
	emptyLoad := len(remaining) == 0 && !snap.Done()
	return steer.Plan(remaining, emptyLoad, cands, cfg)
}
