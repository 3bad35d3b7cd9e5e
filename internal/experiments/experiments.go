// Package experiments reproduces every table and figure of the paper's
// evaluation (§IV) on the simulated substrate:
//
//	Table I    — workflow characterization (table1.go)
//	Figure 2/3 — steering policy vs optimal on linear workflows (linear.go)
//	Figure 4   — prediction-error CDFs (prediction.go)
//	Figure 5/6 — resource cost and relative execution time (cost.go)
//	§IV-F      — controller overhead (overhead.go)
//	Ablations  — design-choice sensitivity studies (ablation.go)
//	Obs. 2     — online vs history-based steering under drift (history.go)
//
// Each driver returns structured results and can render them as text
// tables, so cmd/wire-bench, the Go benchmarks, and the tests all share one
// implementation. Grids execute on the shared internal/parallel pool
// (Config.Workers); per-cell seeds are derived in seed.go so results are
// byte-identical at any worker count.
package experiments

import (
	"repro/internal/cloud"
	"repro/internal/dist"
	"repro/internal/parallel"
	"repro/internal/sim"
	"repro/internal/simtime"
)

// Config parameterizes the experiment suite.
type Config struct {
	// Seed drives workload generation and interference sampling.
	Seed int64
	// Reps is the number of repetitions per setting (the paper repeats
	// each run 3–7 times).
	Reps int
	// Orders is the number of random task orders for the Figure 4 study
	// (the paper uses 5).
	Orders int
	// Units are the charging units in seconds (the paper uses 1, 15, 30,
	// 60 minutes).
	Units []simtime.Duration
	// Lag is the instantiation lag and MAPE interval (~3 min on
	// ExoGENI).
	Lag simtime.Duration
	// MaxInstances and SlotsPerInstance describe the site (12 XOXLarge
	// instances with 4 slots each, §IV-B).
	MaxInstances     int
	SlotsPerInstance int
	// InterferenceSigma is the lognormal log-sigma of the per-attempt
	// occupancy noise (Observation 2); 0 disables it.
	InterferenceSigma float64
	// RunKeys restricts the workload catalogue (nil = all eight runs).
	RunKeys []string
	// LinearNs are the stage widths for Figures 2/3 (paper: 10, 100,
	// 1000).
	LinearNs []int
	// LinearRatios are the R/U (Figure 2) and U/R (Figure 3) sweep
	// points.
	LinearRatios []float64
	// Workers bounds the experiment worker pool shared by every driver
	// (0 or negative = GOMAXPROCS). Identical seeds yield identical
	// results at any worker count.
	Workers int
	// Progress, when non-nil, is called after each completed work item of
	// a driver's grid with the running done count and the grid total. For
	// the Figure 5/6 grid an item is one simulated run (one rep of one
	// policy and unit). It may be invoked concurrently from several
	// workers.
	Progress func(done, total int)
}

// Defaults returns the paper-faithful configuration.
func Defaults() Config {
	return Config{
		Seed:              1,
		Reps:              3,
		Orders:            5,
		Units:             []simtime.Duration{1 * simtime.Minute, 15 * simtime.Minute, 30 * simtime.Minute, 60 * simtime.Minute},
		Lag:               3 * simtime.Minute,
		MaxInstances:      12,
		SlotsPerInstance:  4,
		InterferenceSigma: 0.05,
		LinearNs:          []int{10, 100, 1000},
		LinearRatios:      []float64{1, 1.5, 2, 3, 5, 10, 20, 50, 100, 200, 400, 1000},
	}
}

// Quick returns a reduced configuration for fast CI runs: fewer
// repetitions, two charging units, smaller linear sweeps, and only four of
// the eight workloads.
func Quick() Config {
	cfg := Defaults()
	cfg.Reps = 2
	cfg.Orders = 2
	cfg.Units = []simtime.Duration{1 * simtime.Minute, 30 * simtime.Minute}
	cfg.RunKeys = []string{"genome-s", "tpch1-s", "tpch6-s", "pagerank-s"}
	cfg.LinearNs = []int{10, 100}
	cfg.LinearRatios = []float64{1, 2, 5, 10, 50, 100}
	return cfg
}

// pool returns the shared grid-executor configuration.
func (c Config) pool() parallel.Config {
	return parallel.Config{Workers: c.Workers, OnProgress: c.Progress}
}

// site returns the cloud configuration for one charging unit.
func (c Config) site(unit simtime.Duration) cloud.Config {
	return cloud.Config{
		SlotsPerInstance: c.SlotsPerInstance,
		LagTime:          c.Lag,
		ChargingUnit:     unit,
		MaxInstances:     c.MaxInstances,
	}
}

// simConfig returns the execution-simulator configuration for one charging
// unit and seed.
func (c Config) simConfig(unit simtime.Duration, seed int64) sim.Config {
	sc := sim.Config{
		Cloud: c.site(unit),
		Seed:  seed,
	}
	if c.InterferenceSigma > 0 {
		sc.Interference = dist.NewLognormalFromMean(1, c.InterferenceSigma)
	}
	return sc
}
