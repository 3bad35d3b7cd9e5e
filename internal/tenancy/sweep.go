package tenancy

import (
	"fmt"

	"repro/internal/cloud"
	"repro/internal/parallel"
	"repro/internal/report"
)

// SweepConfig parameterizes the arrival sweep: one stream per arrival rate,
// each stream replayed under every arbiter policy (the paired design — all
// policies of a rate compete on the identical stream). Runs plan once per
// cloud lag, and the budget-aware policies share the stream's total budget,
// the sum of its per-arrival budget draws.
type SweepConfig struct {
	// Seed drives both stream generation and the per-run simulators.
	Seed int64
	// Process is the arrival process (default poisson).
	Process string
	// RatesPerHour are the per-tenant arrival rates swept.
	RatesPerHour []float64
	// N, Tenants, and Keys shape each stream (see StreamConfig).
	N       int
	Tenants int
	Keys    []string
	// Cloud is the per-run site template; Cap the shared physical cap.
	Cloud cloud.Config
	Cap   int
	// Workers bounds sweep parallelism (0 = GOMAXPROCS).
	Workers int
}

// SweepCell is one (rate, policy) result.
type SweepCell struct {
	RatePerHour float64
	Policy      string
	BudgetUnits int
	Result      *MultiResult
}

// Sweep runs the arrival sweep and renders the results table. Cells land in
// fixed slots, so the table is byte-identical at any worker count.
func Sweep(cfg SweepConfig) ([]SweepCell, *report.Table, error) {
	if len(cfg.RatesPerHour) == 0 {
		return nil, nil, fmt.Errorf("tenancy: sweep needs at least one rate")
	}
	policies := Policies()

	// Streams are generated once per rate and shared across policies.
	streams := make([]*Stream, len(cfg.RatesPerHour))
	budgets := make([]int, len(cfg.RatesPerHour))
	for i, rate := range cfg.RatesPerHour {
		s, err := Generate(StreamConfig{
			Seed:          cfg.Seed,
			Process:       cfg.Process,
			N:             cfg.N,
			Tenants:       cfg.Tenants,
			RatePerHour:   rate,
			Keys:          cfg.Keys,
			Slots:         cfg.Cloud.SlotsPerInstance,
			LagS:          float64(cfg.Cloud.LagTime),
			ChargingUnitS: float64(cfg.Cloud.ChargingUnit),
		})
		if err != nil {
			return nil, nil, err
		}
		streams[i] = s
		budgets[i] = s.TotalBudget()
	}

	cells := make([]SweepCell, len(cfg.RatesPerHour)*len(policies))
	err := parallel.ForEach(len(cells), parallel.Config{Workers: cfg.Workers}, func(i int) error {
		ri, pi := i/len(policies), i%len(policies)
		policy := policies[pi]
		budget := budgets[ri]
		if policy == FCFS {
			budget = 0 // the no-arbiter baseline ignores the budget
		}
		res, err := RunStream(streams[ri], MultiConfig{
			Cloud: cfg.Cloud,
			Arbiter: ArbiterConfig{
				Policy:      policy,
				Cap:         cfg.Cap,
				BudgetUnits: budget,
			},
			SimSeed: cfg.Seed,
		})
		if err != nil {
			return fmt.Errorf("rate %.1f/h policy %s: %w", cfg.RatesPerHour[ri], policy, err)
		}
		cells[i] = SweepCell{RatePerHour: cfg.RatesPerHour[ri], Policy: policy, BudgetUnits: budget, Result: res}
		return nil
	})
	if err != nil {
		return nil, nil, err
	}

	tbl := &report.Table{
		Title: fmt.Sprintf("Arrival sweep: %d %s arrivals x %d tenants, cap %d (seed %d)",
			cfg.N, streams[0].Process, cfg.Tenants, cfg.Cap, cfg.Seed),
		Headers: []string{"rate/h", "policy", "budget_u", "arrivals", "misses", "miss_rate",
			"units", "peak_held", "throttled", "q_delay_s"},
	}
	for _, c := range cells {
		tbl.AddRow(
			report.F(c.RatePerHour, 1),
			c.Policy,
			c.BudgetUnits,
			len(c.Result.Outcomes),
			c.Result.Misses,
			report.F(c.Result.MissRate(), 3),
			c.Result.TotalUnits,
			c.Result.PeakHeld,
			c.Result.ThrottledAdmissions,
			report.F(c.Result.QueueDelayMeanS, 1),
		)
	}
	return cells, tbl, nil
}
