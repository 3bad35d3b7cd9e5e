// Command wire-bench prints the paper's evaluation (§IV) on the simulated
// substrate as text tables, one section per table or figure, and the
// multi-tenant arrival sweep (section tenancy) beyond it. EXPERIMENTS.md's
// tables are held to these sections by this package's tests.
//
// Usage:
//
//	wire-bench                 # everything, paper-scale settings
//	wire-bench -quick          # reduced grid for a fast look
//	wire-bench -workers 8      # size the shared experiment worker pool
//	wire-bench -only fig5,fig6 # subset; sections below (and the -only
//	                           # flag help) list the valid keys
//	wire-bench -only tenancy -seed 42 # the arrival sweep of EXPERIMENTS.md
//
// Result tables go to stdout and are byte-identical at any -workers
// setting; progress and per-section timing lines go to stderr.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"strings"
	"time"

	"repro/internal/cloud"
	"repro/internal/experiments"
	"repro/internal/report"
	"repro/internal/simtime"
	"repro/internal/tenancy"
)

// results holds the data of one invocation's sections; a section that was
// not selected stays empty.
type results struct {
	table1     []experiments.Table1Row
	fig2, fig3 []experiments.LinearPoint
	fig4       []experiments.PredictionRun
	cost       *experiments.CostResult
	overhead   []experiments.OverheadRow
	ablation   []experiments.AblationRow
	history    []experiments.HistoryRow
	tenancy    *report.Table
}

// A section is one -only key: the computation that fills its part of
// results, and the table it prints.
type section struct {
	key     string
	compute func(experiments.Config, *results) error
	table   func(*results) *report.Table
}

// sections is the single source of truth for -only: the flag help, the key
// validation and the print order all come from it. Figures 5 and 6 share
// one grid, computed by whichever of them runs first.
var sections = []section{
	{"table1",
		func(cfg experiments.Config, r *results) error { r.table1 = experiments.Table1(cfg); return nil },
		func(r *results) *report.Table { return experiments.Table1Report(r.table1) }},
	{"fig2",
		func(cfg experiments.Config, r *results) (err error) {
			r.fig2, err = experiments.LinearSweep(cfg, experiments.RGreaterU)
			return err
		},
		func(r *results) *report.Table { return experiments.LinearReport(r.fig2) }},
	{"fig3",
		func(cfg experiments.Config, r *results) (err error) {
			r.fig3, err = experiments.LinearSweep(cfg, experiments.RLessEqualU)
			return err
		},
		func(r *results) *report.Table { return experiments.LinearReport(r.fig3) }},
	{"fig4",
		func(cfg experiments.Config, r *results) (err error) {
			r.fig4, err = experiments.PredictionExperiment(cfg)
			return err
		},
		func(r *results) *report.Table { return experiments.PredictionReport(r.fig4) }},
	{"fig5", costGrid, func(r *results) *report.Table { return r.cost.Figure5Report() }},
	{"fig6", costGrid, func(r *results) *report.Table { return r.cost.Figure6Report() }},
	{"overhead",
		func(cfg experiments.Config, r *results) (err error) {
			r.overhead, err = experiments.OverheadExperiment(cfg)
			return err
		},
		func(r *results) *report.Table { return experiments.OverheadReport(r.overhead) }},
	{"ablation",
		func(cfg experiments.Config, r *results) (err error) {
			r.ablation, err = experiments.AblationExperiment(cfg)
			return err
		},
		func(r *results) *report.Table { return experiments.AblationReport(r.ablation) }},
	{"history",
		func(cfg experiments.Config, r *results) (err error) {
			r.history, err = experiments.HistoryExperiment(cfg)
			return err
		},
		func(r *results) *report.Table { return experiments.HistoryReport(r.history) }},
	{"tenancy",
		func(cfg experiments.Config, r *results) (err error) {
			r.tenancy, err = tenancySweep(cfg.Seed, cfg.Workers)
			return err
		},
		func(r *results) *report.Table { return r.tenancy }},
}

func costGrid(cfg experiments.Config, r *results) (err error) {
	if r.cost == nil {
		r.cost, err = experiments.CostExperiment(cfg)
	}
	return err
}

func main() {
	var keys []string
	for _, s := range sections {
		keys = append(keys, s.key)
	}
	quick := flag.Bool("quick", false, "reduced grid (fewer reps/units/workloads)")
	only := flag.String("only", "", "comma-separated subset: "+strings.Join(keys, ","))
	seed := flag.Int64("seed", 1, "base seed")
	workers := flag.Int("workers", 0, "experiment worker pool size (0 = GOMAXPROCS)")
	flag.Parse()

	cfg := experiments.Defaults()
	if *quick {
		cfg = experiments.Quick()
	}
	cfg.Seed = *seed
	cfg.Workers = *workers

	want := map[string]bool{}
	if *only != "" {
		known := map[string]bool{}
		for _, k := range keys {
			known[k] = true
		}
		for _, k := range strings.Split(*only, ",") {
			k = strings.TrimSpace(k)
			if !known[k] {
				fmt.Fprintf(os.Stderr, "wire-bench: unknown -only key %q (valid: %s)\n",
					k, strings.Join(keys, ", "))
				os.Exit(2)
			}
			want[k] = true
		}
	}
	selected := func(k string) bool { return len(want) == 0 || want[k] }

	start := time.Now()
	// Live progress needs \r rewriting, so it is limited to terminals.
	live := false
	if st, err := os.Stderr.Stat(); err == nil {
		live = st.Mode()&os.ModeCharDevice != 0
	}
	if _, err := run(os.Stdout, os.Stderr, cfg, selected, live); err != nil {
		fmt.Fprintln(os.Stderr, "wire-bench:", err)
		os.Exit(1)
	}
	fmt.Fprintf(os.Stderr, "wire-bench: done in %v\n", time.Since(start).Round(time.Millisecond))
}

// run computes the selected sections in order on the shared pool, printing
// each section's table to stdout as it completes; after Figure 6 comes the
// headline line of its §IV-E claims. A per-section timing line, and with
// live cell progress, goes to stderr, so stdout stays reproducible.
func run(stdout, stderr io.Writer, cfg experiments.Config, selected func(string) bool, live bool) (*results, error) {
	r := &results{}
	for _, s := range sections {
		if !selected(s.key) {
			continue
		}
		t0 := time.Now()
		cfg := cfg
		cr := ""
		if live {
			cfg.Progress = func(done, total int) {
				fmt.Fprintf(stderr, "\rwire-bench: %-8s %d/%d", s.key, done, total)
			}
			cr = "\r"
		}
		if err := s.compute(cfg, r); err != nil {
			return nil, err
		}
		fmt.Fprintf(stderr, "%swire-bench: %-8s done in %v\n", cr, s.key, time.Since(t0).Round(time.Millisecond))

		if err := s.table(r).Render(stdout); err != nil {
			return nil, err
		}
		fmt.Fprintln(stdout)
		if s.key == "fig6" {
			h := r.cost.Headline()
			fmt.Fprintf(stdout, "headline: other/wire cost %.2fx-%.2fx | full-site/wire %.2fx-%.2fx | "+
				"wire slowdown %.2fx-%.2fx | wire within 2x of best in %.1f%% of settings | wire cheapest in %.1f%%\n\n",
				h.OtherOverWireCostLo, h.OtherOverWireCostHi,
				h.FullSiteOverWireLo, h.FullSiteOverWireHi,
				h.WireSlowdownLo, h.WireSlowdownHi,
				h.WireWithin2x*100, h.WireCheapestShare*100)
		}
	}
	return r, nil
}

// tenancySweep runs the arrival-rate × arbiter-policy sweep: per rate, one
// seeded Poisson stream of 51 arrivals from 3 tenants, drawing TPC-H Q6, Q1
// and PageRank S-size workflows, replayed under every arbiter policy on a
// shared site of at most 6 small instances, so the arbiter has something to
// arbitrate. -quick does not shrink it.
func tenancySweep(seed int64, workers int) (*report.Table, error) {
	_, tbl, err := tenancy.Sweep(tenancy.SweepConfig{
		Seed:         seed,
		Process:      tenancy.Poisson,
		RatesPerHour: []float64{12, 24, 48},
		N:            51,
		Tenants:      3,
		Keys:         []string{"tpch6-s", "tpch1-s", "pagerank-s"},
		Cloud: cloud.Config{
			SlotsPerInstance: 2,
			LagTime:          3 * simtime.Minute,
			ChargingUnit:     15 * simtime.Minute,
			MaxInstances:     6,
		},
		Cap:     6,
		Workers: workers,
	})
	return tbl, err
}
