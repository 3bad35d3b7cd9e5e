package steer

import (
	"math/rand"
	"testing"
	"testing/quick"

	"repro/internal/cloud"
)

func TestResizePoolEmpty(t *testing.T) {
	if got := ResizePool(nil, 60, 1, 0.2); got != 0 {
		t.Fatalf("empty load -> %d, want 0", got)
	}
}

func TestResizePoolSingleShortTask(t *testing.T) {
	// One 5s task, u=60: never fills a unit, but p==0 forces one instance.
	if got := ResizePool([]float64{5}, 60, 1, 0.2); got != 1 {
		t.Fatalf("p = %d, want 1", got)
	}
}

func TestResizePoolExactUnits(t *testing.T) {
	// 6 tasks x 10s through one slot = 60s = exactly one unit.
	load := []float64{10, 10, 10, 10, 10, 10}
	if got := ResizePool(load, 60, 1, 0.2); got != 1 {
		t.Fatalf("p = %d, want 1", got)
	}
	// Twice the work: two instances.
	load2 := append(append([]float64{}, load...), load...)
	if got := ResizePool(load2, 60, 1, 0.2); got != 2 {
		t.Fatalf("p = %d, want 2", got)
	}
}

func TestResizePoolTailAbsorbedSingleSlot(t *testing.T) {
	// With l=1 the slot set always fills, so a drained queue leaves
	// nothing in slot_used and the tail is absorbed (Algorithm 3 line 28
	// triggers only on p==0 or a multi-slot leftover).
	if got := ResizePool([]float64{60, 20}, 60, 1, 0.2); got != 1 {
		t.Fatalf("p = %d, want 1 (tail folds into T_used)", got)
	}
	if got := ResizePool([]float64{60, 5}, 60, 1, 0.2); got != 1 {
		t.Fatalf("p = %d, want 1", got)
	}
}

func TestResizePoolTailRuleMultiSlot(t *testing.T) {
	// l=2: after one full unit {60,60}, a 30s leftover stays in
	// slot_used when the queue drains; 30 > 0.2*60 -> extra instance.
	if got := ResizePool([]float64{60, 60, 30}, 60, 2, 0.2); got != 2 {
		t.Fatalf("p = %d, want 2 (leftover 30 > 12)", got)
	}
	// A small leftover (<= 0.2u) is absorbed.
	if got := ResizePool([]float64{60, 60, 10}, 60, 2, 0.2); got != 1 {
		t.Fatalf("p = %d, want 1 (leftover 10 <= 12)", got)
	}
}

func TestResizePoolMultiSlot(t *testing.T) {
	// l=2: tasks run two at a time per instance. Four 60s tasks fill one
	// 2-slot instance for 120s = 2 units... Algorithm 3 counts an
	// instance as soon as accumulated min-occupancy reaches u, then
	// resets: {60,60} -> tmin 60 >= 60 -> p=1; {60,60} -> p=2.
	load := []float64{60, 60, 60, 60}
	if got := ResizePool(load, 60, 2, 0.2); got != 2 {
		t.Fatalf("p = %d, want 2", got)
	}
	// Eight 15s tasks on l=2: pairs of 15s accumulate; 4 pairs * 15 = 60
	// -> exactly one instance.
	load = []float64{15, 15, 15, 15, 15, 15, 15, 15}
	if got := ResizePool(load, 60, 2, 0.2); got != 1 {
		t.Fatalf("p = %d, want 1", got)
	}
	// A Genome-L-sized load, 4005 tasks of 1-60 s, on 4-slot instances and
	// 15 min units: at least one instance, at most total/u plus the tail.
	load = make([]float64, 4005)
	total := 0.0
	for i := range load {
		load[i] = float64(1 + i%60)
		total += load[i]
	}
	if got := ResizePool(load, 900, 4, 0.2); got < 1 || got > int(total/900)+1 {
		t.Fatalf("p = %d for %d tasks, total %v s", got, len(load), total)
	}
}

func TestResizePoolZeroRemainders(t *testing.T) {
	// Tasks predicted about-to-complete contribute nothing but must not
	// hang the loop.
	load := []float64{0, 0, 0, 0, 30}
	got := ResizePool(load, 60, 1, 0.2)
	if got != 1 {
		t.Fatalf("p = %d, want 1", got)
	}
}

func TestResizePoolPanicsOnBadParams(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	ResizePool([]float64{1}, 0, 1, 0.2)
}

// Property: p is within sensible bounds — at least 1 for non-empty load and
// at most ceil(total/u)+1 ... with multi-slot at most len(load).
func TestResizePoolBoundsProperty(t *testing.T) {
	f := func(seed int64, lRaw, nRaw uint8) bool {
		rng := rand.New(rand.NewSource(seed))
		l := int(lRaw%4) + 1
		n := int(nRaw%60) + 1
		u := 60.0
		load := make([]float64, n)
		total := 0.0
		for i := range load {
			load[i] = rng.Float64() * 100
			total += load[i]
		}
		p := ResizePool(load, u, l, 0.2)
		if p < 1 {
			return false
		}
		// Upper bound: you can never keep more than total/u instances
		// busy for a full unit each; plus the tail instance.
		maxP := int(total/u) + 1
		return p <= maxP
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// Property: duplicating the load does not decrease p.
func TestResizePoolMonotoneInLoad(t *testing.T) {
	f := func(seed int64, nRaw uint8) bool {
		rng := rand.New(rand.NewSource(seed))
		n := int(nRaw%30) + 1
		load := make([]float64, n)
		for i := range load {
			load[i] = rng.Float64() * 50
		}
		p1 := ResizePool(load, 60, 1, 0.2)
		double := append(append([]float64{}, load...), load...)
		p2 := ResizePool(double, 60, 1, 0.2)
		return p2 >= p1
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func planCfg() Config {
	return Config{ChargingUnit: 60, SlotsPerInstance: 1, Lag: 10, MaxInstances: 12}
}

func TestPlanGrow(t *testing.T) {
	// Load needing 3 instances, current pool of 1.
	load := []float64{60, 60, 60}
	cur := []Candidate{{ID: 0, TimeToNextCharge: 30, RestartCost: 50}}
	d := Plan(load, false, cur, planCfg())
	if d.Launch != 2 || len(d.Releases) != 0 {
		t.Fatalf("decision = %+v, want launch 2", d)
	}
}

func TestPlanGrowCappedBySite(t *testing.T) {
	load := make([]float64, 100)
	for i := range load {
		load[i] = 60
	}
	d := Plan(load, false, nil, planCfg())
	if d.Launch != 12 {
		t.Fatalf("launch = %d, want site cap 12", d.Launch)
	}
}

func TestPlanShrinkReleasesOnlyEligible(t *testing.T) {
	// Ideal pool 1; current 3. Only instance 2 satisfies both r<=lag and
	// c<=0.2u.
	load := []float64{60}
	cur := []Candidate{
		{ID: 0, TimeToNextCharge: 50, RestartCost: 0}, // r too far
		{ID: 1, TimeToNextCharge: 5, RestartCost: 30}, // restart too costly (>12)
		{ID: 2, TimeToNextCharge: 5, RestartCost: 3},  // eligible
	}
	d := Plan(load, false, cur, planCfg())
	if d.Launch != 0 || len(d.Releases) != 1 || d.Releases[0].Instance != 2 || !d.Releases[0].AtBoundary {
		t.Fatalf("decision = %+v", d)
	}
}

func TestPlanShrinkPrefersCheapRestarts(t *testing.T) {
	load := []float64{60} // p = 1, m = 3: release up to 2
	cur := []Candidate{
		{ID: 0, TimeToNextCharge: 5, RestartCost: 10},
		{ID: 1, TimeToNextCharge: 5, RestartCost: 1},
		{ID: 2, TimeToNextCharge: 5, RestartCost: 5},
	}
	d := Plan(load, false, cur, planCfg())
	if len(d.Releases) != 2 {
		t.Fatalf("releases = %+v", d.Releases)
	}
	if d.Releases[0].Instance != 1 || d.Releases[1].Instance != 2 {
		t.Fatalf("release order by restart cost wrong: %+v", d.Releases)
	}
}

func TestPlanHold(t *testing.T) {
	load := []float64{60, 60}
	cur := []Candidate{
		{ID: 0, TimeToNextCharge: 5, RestartCost: 0},
		{ID: 1, TimeToNextCharge: 5, RestartCost: 0},
	}
	d := Plan(load, false, cur, planCfg())
	if d.Launch != 0 || len(d.Releases) != 0 {
		t.Fatalf("decision = %+v, want hold", d)
	}
}

func TestPlanEmptyLoadRetainsMinimalPool(t *testing.T) {
	cur := []Candidate{
		{ID: 0, TimeToNextCharge: 5, RestartCost: 0},
		{ID: 1, TimeToNextCharge: 5, RestartCost: 0},
		{ID: 2, TimeToNextCharge: 50, RestartCost: 0},
	}
	d := Plan(nil, true, cur, planCfg())
	if d.Launch != 0 {
		t.Fatalf("launched on empty load: %+v", d)
	}
	if len(d.Releases) != 2 {
		t.Fatalf("releases = %+v, want shrink toward minimal pool of 1", d.Releases)
	}
	// With an empty pool and empty load, launch the minimal pool.
	d2 := Plan(nil, true, nil, planCfg())
	if d2.Launch != 1 {
		t.Fatalf("empty pool decision = %+v, want launch 1", d2)
	}
}

func TestPlanNeverReleasesBelowMinPool(t *testing.T) {
	load := []float64{1} // tiny load -> p = 1
	cur := []Candidate{
		{ID: 0, TimeToNextCharge: 1, RestartCost: 0},
		{ID: 1, TimeToNextCharge: 1, RestartCost: 0},
	}
	d := Plan(load, false, cur, planCfg())
	if len(d.Releases) != 1 {
		t.Fatalf("releases = %+v, want exactly 1 (keep min pool)", d.Releases)
	}
}

func TestFromSnapshotDefaults(t *testing.T) {
	cfg := Config{ChargingUnit: 60, SlotsPerInstance: 4}.withDefaults()
	if cfg.RestartFrac != 0.2 || cfg.MinPool != 1 {
		t.Fatalf("defaults = %+v", cfg)
	}
	_ = cloud.InstanceID(0) // keep cloud import meaningful
}

func TestResizePoolTargetGrowsEarlier(t *testing.T) {
	// 2500s of work on 4-slot instances at u=1800: a full-unit target
	// packs it into one instance; a 0.6 target counts an instance every
	// 1080s of projected busy time.
	load := make([]float64, 1000)
	for i := range load {
		load[i] = 10
	}
	full := ResizePoolTarget(load, 1800, 4, 0.2, 1.0)
	relaxed := ResizePoolTarget(load, 1800, 4, 0.2, 0.6)
	if full != 1 {
		t.Fatalf("full-target p = %d, want 1", full)
	}
	if relaxed <= full {
		t.Fatalf("relaxed target did not grow pool: %d vs %d", relaxed, full)
	}
}

func TestResizePoolTargetClamped(t *testing.T) {
	load := []float64{60, 60}
	// Out-of-range targets fall back to 1.0.
	if got := ResizePoolTarget(load, 60, 1, 0.2, 0); got != ResizePool(load, 60, 1, 0.2) {
		t.Fatalf("target 0 not clamped: %d", got)
	}
	if got := ResizePoolTarget(load, 60, 1, 0.2, 1.5); got != ResizePool(load, 60, 1, 0.2) {
		t.Fatalf("target >1 not clamped: %d", got)
	}
}

func TestPlanUtilizationTarget(t *testing.T) {
	cfg := planCfg()
	cfg.SlotsPerInstance = 1
	load := []float64{40, 40, 40} // 120s total at u=60
	pFull := Plan(load, false, nil, cfg).Launch
	cfg.UtilizationTarget = 0.5
	pRelaxed := Plan(load, false, nil, cfg).Launch
	if pRelaxed <= pFull {
		t.Fatalf("relaxed target launch %d <= full %d", pRelaxed, pFull)
	}
}
