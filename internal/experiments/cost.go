package experiments

import (
	"fmt"
	"sync"

	"repro/internal/baseline"
	"repro/internal/core"
	"repro/internal/dag"
	"repro/internal/metrics"
	"repro/internal/parallel"
	"repro/internal/report"
	"repro/internal/sim"
	"repro/internal/simtime"
)

// PolicyNames lists the four resource-management settings of §IV-C3 in
// report order.
var PolicyNames = []string{"full-site", "pure-reactive", "reactive-conserving", "wire"}

// newController builds a fresh controller for a policy name (stateful
// controllers must not be shared across runs).
func newController(policy string) (sim.Controller, error) {
	switch policy {
	case "full-site":
		return baseline.Static{}, nil
	case "pure-reactive":
		return baseline.PureReactive{}, nil
	case "reactive-conserving":
		return &baseline.ReactiveConserving{}, nil
	case "wire":
		return core.New(core.Config{}), nil
	default:
		return nil, fmt.Errorf("experiments: unknown policy %q", policy)
	}
}

// CostCell aggregates the repetitions of one (run, policy, unit) setting.
type CostCell struct {
	RunKey  string
	Display string
	Policy  string
	Unit    simtime.Duration
	Summary metrics.CostSummary
}

// CostResult holds the full Figure 5/6 grid.
type CostResult struct {
	Cells []CostCell
}

// CostExperiment runs the grid: every catalogued run × the four policies ×
// the configured charging units × Reps repetitions (experiments E5/E6).
//
// Every simulated run is one item on the shared worker pool, ordered
// run → rep → (unit, policy), so the runs that share a (run, rep) dataset
// instance are adjacent. The first of them to start generates the instance
// and the last to finish drops it; since the pool takes items in order, at
// most Workers+1 instances are alive at once. A finished run keeps only what
// its cell's summary reads. Each run is an independent, seeded simulation,
// so the result is deterministic and ordered regardless of scheduling and
// worker count.
func CostExperiment(cfg Config) (*CostResult, error) {
	runs := catalogueRuns(cfg)
	nPol := len(PolicyNames)
	perInstance := len(cfg.Units) * nPol
	instances := make([]instance, len(runs)*cfg.Reps)
	for i := range instances {
		instances[i].left = perInstance
	}
	results := make([]sim.Result, len(instances)*perInstance)
	err := parallel.ForEach(len(results), cfg.pool(), func(i int) error {
		k, j := i/perInstance, i%perInstance
		run, rep := runs[k/cfg.Reps], int64(k%cfg.Reps)
		policy, unit := PolicyNames[j%nPol], cfg.Units[j/nPol]
		inst := &instances[k]
		wf := inst.acquire(func() *dag.Workflow { return run.Generate(workloadSeed(cfg.Seed, run.Key, rep)) })
		defer inst.release()
		res, err := runOnce(cfg, wf, run.Key, policy, unit, rep)
		if err != nil {
			return fmt.Errorf("experiments: %s/%s/u=%v rep %d: %w", run.Key, policy, unit, rep, err)
		}
		results[i] = sim.Result{
			Policy:         res.Policy,
			Makespan:       res.Makespan,
			UnitsCharged:   res.UnitsCharged,
			Utilization:    res.Utilization,
			Restarts:       res.Restarts,
			ControllerWall: res.ControllerWall,
		}
		return nil
	})
	if err != nil {
		return nil, err
	}

	cells := make([]CostCell, 0, len(runs)*perInstance)
	reps := make([]*sim.Result, cfg.Reps)
	for r, run := range runs {
		for j := 0; j < perInstance; j++ {
			for rep := range reps {
				reps[rep] = &results[(r*cfg.Reps+rep)*perInstance+j]
			}
			unit := cfg.Units[j/nPol]
			cells = append(cells, CostCell{
				RunKey:  run.Key,
				Display: run.Display,
				Policy:  PolicyNames[j%nPol],
				Unit:    unit,
				Summary: metrics.SummarizeRuns(reps, unit),
			})
		}
	}
	return &CostResult{Cells: cells}, nil
}

// instance is one (run, rep) dataset instance, shared read-only by the runs
// of every (unit, policy); left counts the runs not yet finished with it.
type instance struct {
	mu   sync.Mutex
	wf   *dag.Workflow
	left int
}

// acquire returns the instance, generating it on first use.
func (in *instance) acquire(generate func() *dag.Workflow) *dag.Workflow {
	in.mu.Lock()
	defer in.mu.Unlock()
	if in.wf == nil {
		in.wf = generate()
	}
	return in.wf
}

// release drops the instance once its last run is done with it.
func (in *instance) release() {
	in.mu.Lock()
	defer in.mu.Unlock()
	if in.left--; in.left == 0 {
		in.wf = nil
	}
}

// runOnce executes one repetition of one setting on its dataset instance.
// The instance is shared across policies and units (paired comparison on
// one dataset instance); the simulator seed is fully per-run.
func runOnce(cfg Config, wf *dag.Workflow, runKey, policy string, unit simtime.Duration, rep int64) (*sim.Result, error) {
	ctrl, err := newController(policy)
	if err != nil {
		return nil, err
	}
	simCfg := cfg.simConfig(unit, simSeed(cfg.Seed, runKey, policy, unit, rep))
	if policy == "full-site" {
		simCfg.InitialInstances = cfg.MaxInstances
	}
	return sim.Run(wf, ctrl, simCfg)
}

// cellsFor returns the cells of one run in (unit, policy) order, and each
// cell's mean makespan relative to the run's fastest setting (§IV-E).
func (r *CostResult) cellsFor(runKey string) ([]CostCell, []float64) {
	var cells []CostCell
	var sums []metrics.CostSummary
	for _, c := range r.Cells {
		if c.RunKey == runKey {
			cells = append(cells, c)
			sums = append(sums, c.Summary)
		}
	}
	return cells, metrics.RelativeTimes(sums)
}

// runKeys lists the run keys present in the result, in insertion order.
func (r *CostResult) runKeys() []string {
	seen := map[string]bool{}
	var out []string
	for _, c := range r.Cells {
		if !seen[c.RunKey] {
			seen[c.RunKey] = true
			out = append(out, c.RunKey)
		}
	}
	return out
}

// Cell looks up one grid cell.
func (r *CostResult) Cell(runKey, policy string, unit simtime.Duration) (CostCell, bool) {
	for _, c := range r.Cells {
		if c.RunKey == runKey && c.Policy == policy && c.Unit == unit {
			return c, true
		}
	}
	return CostCell{}, false
}

// Figure5Report renders resource cost (charging units, mean ± std) per run.
func (r *CostResult) Figure5Report() *report.Table {
	t := &report.Table{
		Title:   "Figure 5 — resource cost (charging units, mean ± std)",
		Headers: []string{"run", "unit", "full-site", "pure-reactive", "reactive-conserving", "wire"},
	}
	for _, key := range r.runKeys() {
		cells, _ := r.cellsFor(key)
		for _, u := range uniqueUnits(cells) {
			row := []any{cells[0].Display, simtime.FormatDuration(u)}
			for _, p := range PolicyNames {
				if c, ok := r.Cell(key, p, u); ok {
					row = append(row, report.MeanStd(c.Summary.CostMean, c.Summary.CostStd, 1))
				} else {
					row = append(row, "-")
				}
			}
			t.AddRow(row...)
		}
	}
	return t
}

// Figure6Report renders relative execution time (each run's settings
// normalized to its fastest setting, as in §IV-E).
func (r *CostResult) Figure6Report() *report.Table {
	t := &report.Table{
		Title:   "Figure 6 — relative execution time (vs best setting of the run)",
		Headers: []string{"run", "unit", "full-site", "pure-reactive", "reactive-conserving", "wire"},
	}
	for _, key := range r.runKeys() {
		cells, rel := r.cellsFor(key)
		for _, u := range uniqueUnits(cells) {
			row := []any{cells[0].Display, simtime.FormatDuration(u)}
			for _, p := range PolicyNames {
				cell := "-"
				for i, c := range cells {
					if c.Policy == p && c.Unit == u && rel[i] > 0 {
						cell = report.Ratio(rel[i])
					}
				}
				row = append(row, cell)
			}
			t.AddRow(row...)
		}
	}
	return t
}

// Headline summarizes the paper's §IV-E claims for EXPERIMENTS.md: the
// range of other-policy cost over wire cost, the full-site/wire cost ratio
// range, wire's slowdown vs the per-run best, and the fraction of wire
// settings within 2x of the best execution time.
type Headline struct {
	OtherOverWireCostLo float64
	OtherOverWireCostHi float64
	FullSiteOverWireLo  float64
	FullSiteOverWireHi  float64
	WireSlowdownLo      float64
	WireSlowdownHi      float64
	WireWithin2x        float64 // fraction of wire settings
	WireCheapestShare   float64 // fraction of (run, unit) cells where wire is cheapest
}

// span is the range of the values added to it.
type span struct {
	lo, hi float64
	ok     bool
}

func (s *span) add(v float64) {
	if !s.ok || v < s.lo {
		s.lo = v
	}
	if !s.ok || v > s.hi {
		s.hi = v
	}
	s.ok = true
}

// Headline computes the summary statistics.
func (r *CostResult) Headline() Headline {
	var other, fullSite, slowdown span
	wireCells, wireWithin := 0, 0
	cheapCells, cheapWire := 0, 0
	for _, key := range r.runKeys() {
		cells, rel := r.cellsFor(key)
		for i, wire := range cells {
			if wire.Policy != "wire" || wire.Summary.CostMean == 0 {
				continue
			}
			cheapCells++
			cheapest := true
			for _, c := range cells {
				if c.Unit != wire.Unit || c.Policy == "wire" {
					continue
				}
				ratio := c.Summary.CostMean / wire.Summary.CostMean
				other.add(ratio)
				if c.Policy == "full-site" {
					fullSite.add(ratio)
				}
				if c.Summary.CostMean < wire.Summary.CostMean {
					cheapest = false
				}
			}
			if cheapest {
				cheapWire++
			}
			if rel[i] > 0 {
				slowdown.add(rel[i])
				wireCells++
				if rel[i] <= 2 {
					wireWithin++
				}
			}
		}
	}
	h := Headline{
		OtherOverWireCostLo: other.lo, OtherOverWireCostHi: other.hi,
		FullSiteOverWireLo: fullSite.lo, FullSiteOverWireHi: fullSite.hi,
		WireSlowdownLo: slowdown.lo, WireSlowdownHi: slowdown.hi,
	}
	if wireCells > 0 {
		h.WireWithin2x = float64(wireWithin) / float64(wireCells)
	}
	if cheapCells > 0 {
		h.WireCheapestShare = float64(cheapWire) / float64(cheapCells)
	}
	return h
}

func uniqueUnits(cells []CostCell) []simtime.Duration {
	seen := map[simtime.Duration]bool{}
	var out []simtime.Duration
	for _, c := range cells {
		if !seen[c.Unit] {
			seen[c.Unit] = true
			out = append(out, c.Unit)
		}
	}
	return out
}
