package experiments

import (
	"math"

	"repro/internal/dist"
	"repro/internal/simtime"
)

// Per-cell seed derivation. The old scheme (`cfg.Seed + 1000*rep`) collides
// across base seeds — base 1 at rep 2 equals base 2001 at rep 0 — so two
// "independent" suite invocations could silently share workload instances.
// Instead every stream folds its full coordinates through a splitmix64-style
// hash:
//
//	workload  (base, runKey, rep)                — shared by every policy and
//	                                               unit so comparisons stay
//	                                               paired on one instance
//	sim       (base, runKey, policy, unit, rep)  — per-cell interference
//	order     (base, runKey, rep, ord)           — Figure 4 task orders
//
// Seeds are pure functions of their coordinates, so any worker may compute
// any cell and the grid result is independent of scheduling.

// seed stream labels; folding the stream first keeps, say, workload and
// order seeds of the same cell from ever coinciding.
const (
	streamWorkload = "workload"
	streamSim      = "sim"
	streamOrder    = "order"
)

// unitPart folds a charging unit; units are exact small floats, so the bit
// pattern is a stable identity.
func unitPart(u simtime.Duration) uint64 {
	return math.Float64bits(u)
}

// workloadSeed generates the dataset instance of one (run, rep) cell. It
// deliberately omits policy and unit: all policies of a rep compete on the
// identical workload (the paper's paired design).
func workloadSeed(base int64, runKey string, rep int64) int64 {
	return dist.DeriveSeed(base, streamWorkload, dist.Label(runKey), uint64(rep))
}

// simSeed drives the execution simulator (interference sampling) of one
// fully qualified grid cell.
func simSeed(base int64, runKey, policy string, unit simtime.Duration, rep int64) int64 {
	return dist.DeriveSeed(base, streamSim, dist.Label(runKey), dist.Label(policy), unitPart(unit), uint64(rep))
}

// orderSeed shuffles one random task order of the Figure 4 replay.
func orderSeed(base int64, runKey string, rep, ord int64) int64 {
	return dist.DeriveSeed(base, streamOrder, dist.Label(runKey), uint64(rep), uint64(ord))
}
