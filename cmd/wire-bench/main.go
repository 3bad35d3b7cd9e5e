// Command wire-bench regenerates every table and figure of the paper's
// evaluation (§IV) on the simulated substrate, and the multi-tenant arrival
// sweep (section tenancy) beyond it.
//
// Usage:
//
//	wire-bench                 # everything, paper-scale settings
//	wire-bench -quick          # reduced grid for a fast look
//	wire-bench -workers 8      # size the shared experiment worker pool
//	wire-bench -only fig5,fig6 # subset; sectionKeys below (and the -only
//	                           # flag help) list the valid keys
//	wire-bench -only tenancy -seed 42 # the arrival sweep of EXPERIMENTS.md
//
// Result tables go to stdout and are byte-identical at any -workers
// setting; progress and per-section timing lines go to stderr.
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"
	"time"

	"repro/internal/cloud"
	"repro/internal/experiments"
	"repro/internal/report"
	"repro/internal/simtime"
	"repro/internal/tenancy"
)

// sectionKeys is the single source of truth for -only: the flag help, the
// key validation, and the package documentation all refer to it.
var sectionKeys = []string{"table1", "fig2", "fig3", "fig4", "fig5", "fig6", "overhead", "ablation", "history", "tenancy"}

func main() {
	quick := flag.Bool("quick", false, "reduced grid (fewer reps/units/workloads)")
	only := flag.String("only", "", "comma-separated subset: "+strings.Join(sectionKeys, ","))
	seed := flag.Int64("seed", 1, "base seed")
	workers := flag.Int("workers", 0, "experiment worker pool size (0 = GOMAXPROCS)")
	svgDir := flag.String("svg", "", "also write every figure as SVG into this directory")
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
		for _, k := range sectionKeys {
			known[k] = true
		}
		for _, k := range strings.Split(*only, ",") {
			k = strings.TrimSpace(k)
			if !known[k] {
				fmt.Fprintf(os.Stderr, "wire-bench: unknown -only key %q (valid: %s)\n",
					k, strings.Join(sectionKeys, ", "))
				os.Exit(2)
			}
			want[k] = true
		}
	}
	selected := func(k string) bool { return len(want) == 0 || want[k] }

	start := time.Now()

	// timed runs one section's computation on the shared pool, streaming
	// cell progress to stderr and closing with a per-section timing line.
	// Only stderr carries timing, so stdout stays reproducible. Live
	// progress needs \r rewriting, so it is limited to terminals.
	liveProgress := false
	if st, err := os.Stderr.Stat(); err == nil {
		liveProgress = st.Mode()&os.ModeCharDevice != 0
	}
	timed := func(name string, f func() error) {
		t0 := time.Now()
		if liveProgress {
			cfg.Progress = func(done, total int) {
				fmt.Fprintf(os.Stderr, "\rwire-bench: %-8s %d/%d", name, done, total)
			}
		}
		err := f()
		cfg.Progress = nil
		exitIf(err)
		cr := ""
		if liveProgress {
			cr = "\r"
		}
		fmt.Fprintf(os.Stderr, "%swire-bench: %-8s done in %v\n", cr, name, time.Since(t0).Round(time.Millisecond))
	}

	if selected("table1") {
		var rows []experiments.Table1Row
		timed("table1", func() error { rows = experiments.Table1(cfg); return nil })
		section(experiments.Table1Report(rows))
	}
	if selected("fig2") {
		var points []experiments.LinearPoint
		timed("fig2", func() (err error) {
			points, err = experiments.LinearSweep(cfg, experiments.RGreaterU)
			return err
		})
		section(experiments.LinearReport(points))
	}
	if selected("fig3") {
		var points []experiments.LinearPoint
		timed("fig3", func() (err error) {
			points, err = experiments.LinearSweep(cfg, experiments.RLessEqualU)
			return err
		})
		section(experiments.LinearReport(points))
	}
	if selected("fig4") {
		var runs []experiments.PredictionRun
		timed("fig4", func() (err error) {
			runs, err = experiments.PredictionExperiment(cfg)
			return err
		})
		section(experiments.PredictionReport(runs))
	}
	var cost *experiments.CostResult
	if selected("fig5") || selected("fig6") {
		timed("fig5/6", func() (err error) {
			cost, err = experiments.CostExperiment(cfg)
			return err
		})
	}
	if selected("fig5") {
		section(cost.Figure5Report())
	}
	if selected("fig6") {
		section(cost.Figure6Report())
		h := cost.Headline()
		fmt.Printf("headline: other/wire cost %.2fx-%.2fx | full-site/wire %.2fx-%.2fx | "+
			"wire slowdown %.2fx-%.2fx | wire within 2x of best in %.1f%% of settings | wire cheapest in %.1f%%\n\n",
			h.OtherOverWireCostLo, h.OtherOverWireCostHi,
			h.FullSiteOverWireLo, h.FullSiteOverWireHi,
			h.WireSlowdownLo, h.WireSlowdownHi,
			h.WireWithin2x*100, h.WireCheapestShare*100)
	}
	if selected("overhead") {
		var rows []experiments.OverheadRow
		timed("overhead", func() (err error) {
			rows, err = experiments.OverheadExperiment(cfg)
			return err
		})
		section(experiments.OverheadReport(rows))
	}
	if selected("ablation") {
		var rows []experiments.AblationRow
		timed("ablation", func() (err error) {
			rows, err = experiments.AblationExperiment(cfg)
			return err
		})
		section(experiments.AblationReport(rows))
	}
	if selected("history") {
		var rows []experiments.HistoryRow
		timed("history", func() (err error) {
			rows, err = experiments.HistoryExperiment(cfg)
			return err
		})
		section(experiments.HistoryReport(rows))
	}
	if selected("tenancy") {
		var tbl *report.Table
		timed("tenancy", func() (err error) {
			tbl, err = tenancySweep(cfg.Seed, cfg.Workers)
			return err
		})
		section(tbl)
	}

	if *svgDir != "" {
		var files []string
		timed("svg", func() (err error) {
			files, err = experiments.WriteFigureSVGs(cfg, *svgDir)
			return err
		})
		fmt.Fprintf(os.Stderr, "wire-bench: wrote %d SVG figures to %s\n", len(files), *svgDir)
	}

	fmt.Fprintf(os.Stderr, "wire-bench: done in %v\n", time.Since(start).Round(time.Millisecond))
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

func section(t *report.Table) {
	if err := t.Render(os.Stdout); err != nil {
		exitIf(err)
	}
	fmt.Println()
}

func exitIf(err error) {
	if err != nil {
		fmt.Fprintln(os.Stderr, "wire-bench:", err)
		os.Exit(1)
	}
}
