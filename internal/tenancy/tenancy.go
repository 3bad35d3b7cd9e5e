// Package tenancy is the workloads-of-workflows layer: a stream of
// heterogeneous workflow arrivals from multiple tenants contending for one
// shared site-capped instance pool under a shared budget.
//
// The package has three parts:
//
//   - Arrival streams (arrivals.go): seeded Poisson, burst, and diurnal
//     arrival processes over the internal/workloads catalog, with
//     per-arrival size/deadline/budget draws. Streams are deterministic in
//     (seed, process, tenant) — every tenant folds its coordinates through
//     a splitmix64 stream, the same scheme as internal/experiments — so any
//     worker can regenerate any tenant's substream independently.
//   - The cross-run arbiter (arbiter.go): a scheduler *above* the
//     per-workflow controllers that apportions the shared cap and budget
//     across concurrent runs (fair-share, deadline-urgency, and
//     budget-feedback policies). Each run's WIRE controller still plans its
//     own pool; the arbiter only grants it a ceiling and a launch allowance,
//     enforced with steer.Throttle.
//   - The multi-run harness (multisim.go): interleaves independent sim runs
//     at MAPE-interval granularity against one shared capacity/spend ledger
//     (account.go), admitting or deferring arrivals as the arbiter allows.
//
// Trace import/export (traceio.go) round-trips a stream through a CSV so an
// external cluster trace can replay through either the simulator or the
// live wire-serve plane.
package tenancy

import (
	"math"
	"sort"

	"repro/internal/simtime"
	"repro/internal/workloads"
)

// Arrival is one workflow submission in a multi-tenant stream.
type Arrival struct {
	// Index is the arrival's position in the merged stream (stable across
	// regeneration; used to derive the per-run simulation seed).
	Index int
	// Tenant identifies the submitting stream, e.g. "t0".
	Tenant string
	// Time is the submission instant on the global stream clock.
	Time simtime.Time
	// WorkflowKey names the internal/workloads catalog entry.
	WorkflowKey string
	// WorkflowSeed instantiates the workflow (task-time draws).
	WorkflowSeed int64
	// DeadlineS is the deadline relative to Time: the run misses when it
	// completes after Time+DeadlineS on the global clock (queueing delay
	// counts against the deadline).
	DeadlineS float64
	// BudgetUnits is the submitter's willingness to pay, in charging
	// units. Per-tenant and stream-wide budgets are sums of these.
	BudgetUnits int
}

// Deadline returns the arrival's absolute deadline on the global clock.
func (a Arrival) Deadline() simtime.Time { return a.Time + simtime.Time(a.DeadlineS) }

// Stream is a merged multi-tenant arrival sequence, sorted by time.
type Stream struct {
	// Seed and Process record how the stream was generated.
	Seed    int64
	Process string
	// Arrivals is sorted by (Time, Tenant, Index).
	Arrivals []Arrival
}

// TotalBudget sums the per-arrival budgets — the natural stream-wide budget
// when the arbiter is not given an explicit one.
func (s *Stream) TotalBudget() int {
	total := 0
	for _, a := range s.Arrivals {
		total += a.BudgetUnits
	}
	return total
}

// sortArrivals establishes the canonical stream order and reassigns indices.
func sortArrivals(arrivals []Arrival) {
	sort.Slice(arrivals, func(i, j int) bool {
		if arrivals[i].Time != arrivals[j].Time {
			return arrivals[i].Time < arrivals[j].Time
		}
		if arrivals[i].Tenant != arrivals[j].Tenant {
			return arrivals[i].Tenant < arrivals[j].Tenant
		}
		return arrivals[i].Index < arrivals[j].Index
	})
	for i := range arrivals {
		arrivals[i].Index = i
	}
}

// NominalSpanS estimates a run's makespan on a fixed pool of instances×slots
// slots from the catalog spec alone (stage means, no skew): each stage takes
// ceil(width/slots) waves of its mean exec plus one transfer. Deadline draws
// scale this estimate, so deadlines are tight for large workflows on small
// reference pools and loose otherwise.
func NominalSpanS(spec workloads.Spec, instances, slots int) float64 {
	if instances < 1 {
		instances = 1
	}
	if slots < 1 {
		slots = 1
	}
	pool := float64(instances * slots)
	span := 0.0
	for _, st := range spec.Stages {
		waves := math.Ceil(float64(st.Count) / pool)
		span += waves*st.MeanExec + st.TransferMean
	}
	return span
}

// estCostUnits estimates the charging units a run consumes on the reference
// pool: the spec's nominal work divided by the slot-seconds one
// instance-unit provides, never less than one unit per instance actually
// needed.
func estCostUnits(spec workloads.Spec, slots int, unit simtime.Duration) int {
	if slots < 1 {
		slots = 1
	}
	if unit <= 0 {
		unit = 1
	}
	units := math.Ceil(spec.NominalWork() / (float64(slots) * float64(unit)))
	if units < 1 {
		units = 1
	}
	return int(units)
}
