package main

import (
	"fmt"
	"math"
	"testing"

	"repro/internal/experiments"
	"repro/internal/metrics"
	"repro/internal/simtime"
)

// A claim is one of the paper's evaluation claims written as a band: every
// value that measure reads from the seed-1 run must lie in [lo, hi]. paper
// is the paper's own number. Where the band is not the paper's, it is drawn
// around what this reproduction measures, and EXPERIMENTS.md says why the
// two differ.
type claim struct {
	name    string
	paper   string
	lo, hi  float64
	measure func(*results) []value
}

// value is one measured number and where it was read.
type value struct {
	at string
	v  float64
}

var inf = math.Inf(1)

var claims = []claim{
	// E1 — Table I.
	{"Table I: every run has the paper's task count (tasks − paper)", "62–4005 tasks", 0, 0,
		func(r *results) (vs []value) {
			for _, row := range r.table1 {
				vs = append(vs, value{row.Run.Display, float64(row.Tasks - row.PaperTask)})
			}
			return vs
		}},
	{"Table I: every run has the paper's stage count (stages − paper)", "2–12 stages", 0, 0,
		func(r *results) (vs []value) {
			for _, row := range r.table1 {
				vs = append(vs, value{row.Run.Display, float64(row.Stages - row.Run.Paper.Stages)})
			}
			return vs
		}},
	{"Table I: stage widths span the paper's (width − paper, at each end)", "1–1000; TPCH-6 L's 118 is unsatisfiable, 117 is used", -1, 0,
		func(r *results) (vs []value) {
			for _, row := range r.table1 {
				vs = append(vs,
					value{row.Run.Display + " narrowest", float64(row.WidthLo - row.Run.Paper.WidthLo)},
					value{row.Run.Display + " widest", float64(row.WidthHi - row.Run.Paper.WidthHi)})
			}
			return vs
		}},

	// E2 — Figure 2, R > U.
	{"Figure 2: cost over optimal for R/U ≥ 1.5", "≤ ≈1.33×", 1, 1.334,
		linear(func(r *results) []experiments.LinearPoint { return r.fig2 }, 1.5, func(p experiments.LinearPoint) float64 { return p.CostRatio })},
	{"Figure 2: completion time over optimal for R/U ≥ 1.5", "≤ ≈1.67× (the growth phase steps once per control tick here)", 1, 2.43,
		linear(func(r *results) []experiments.LinearPoint { return r.fig2 }, 1.5, func(p experiments.LinearPoint) float64 { return p.TimeRatio })},
	{"Figure 2: cost and time over optimal never grow with R/U from 1.5 on (step to the next ratio)", "decaying", -inf, 0,
		func(r *results) (vs []value) {
			last := map[int]experiments.LinearPoint{}
			for _, p := range r.fig2 {
				if q, ok := last[p.N]; ok && q.Ratio >= 1.5 {
					at := fmt.Sprintf("N=%d R/U %g→%g", p.N, q.Ratio, p.Ratio)
					vs = append(vs, value{at + " cost", p.CostRatio - q.CostRatio}, value{at + " time", p.TimeRatio - q.TimeRatio})
				}
				last[p.N] = p
			}
			return vs
		}},
	{"Figure 2: cost over optimal for R/U ≥ 400", "≈1.00", 1, 1.005,
		linear(func(r *results) []experiments.LinearPoint { return r.fig2 }, 400, func(p experiments.LinearPoint) float64 { return p.CostRatio })},
	{"Figure 2: completion time over optimal for R/U ≥ 400", "≈1.00", 1, 1.005,
		linear(func(r *results) []experiments.LinearPoint { return r.fig2 }, 400, func(p experiments.LinearPoint) float64 { return p.TimeRatio })},

	// E3 — Figure 3, R ≤ U: once one unit holds all the work (U/R ≥ N),
	// one instance runs every task.
	{"Figure 3: peak pool once U/R ≥ N", "deviates widely, depending on the scenario", 1, 1,
		oneInstance(func(p experiments.LinearPoint) float64 { return float64(p.PeakPool) })},
	{"Figure 3: completion time over optimal, divided by N, once U/R ≥ N", "deviates widely, depending on the scenario", 0.999, 1.001,
		oneInstance(func(p experiments.LinearPoint) float64 { return p.TimeRatio / float64(p.N) })},
	{"Figure 3: cost over optimal, divided by U/(N·R), once U/R ≥ N", "deviates widely, depending on the scenario", 0.999, 1.001,
		oneInstance(func(p experiments.LinearPoint) float64 { return p.CostRatio * float64(p.N) / p.Ratio })},

	// E4 — Figure 4, per run and stage class.
	{"Figure 4: short stages' mean |true error| (s)", "≤ 0.1 s", 0, 1.65,
		prediction(metrics.ShortStage, func(s metrics.ErrorSummary) float64 { return s.MeanAbsTrueError })},
	{"Figure 4: medium stages' mean |true error| (s)", "≤ 2.15 s", 0, 4.6,
		prediction(metrics.MediumStage, func(s metrics.ErrorSummary) float64 { return s.MeanAbsTrueError })},
	{"Figure 4: long stages' mean |relative error|", "≤ 13.1 %", 0, 0.131,
		prediction(metrics.LongStage, func(s metrics.ErrorSummary) float64 { return s.MeanAbsRelError })},
	{"Figure 4: short-stage tasks within 1 s", "93.18 %", 0.65, 1,
		prediction(metrics.ShortStage, func(s metrics.ErrorSummary) float64 { return s.FracWithin1s })},
	{"Figure 4: medium-stage tasks within 1 s", "79.4 %", 0.36, 1,
		prediction(metrics.MediumStage, func(s metrics.ErrorSummary) float64 { return s.FracWithin1s })},
	{"Figure 4: long-stage tasks within 15 %", "83.19 %", 0.66, 1,
		prediction(metrics.LongStage, func(s metrics.ErrorSummary) float64 { return s.FracWithin15pct })},

	// E5/E6 — Figures 5 and 6, the §IV-E headline.
	{"Figures 5/6: share of (run, unit) cells where wire is cheapest or tied", "most cases", 0.9, 1,
		headline(func(h experiments.Headline) float64 { return h.WireCheapestShare })},
	{"Figures 5/6: other policies' cost over wire's, lowest", "0.93×", 0.71, 0.73,
		headline(func(h experiments.Headline) float64 { return h.OtherOverWireCostLo })},
	{"Figures 5/6: other policies' cost over wire's, highest", "14.66×", 11.9, 12.1,
		headline(func(h experiments.Headline) float64 { return h.OtherOverWireCostHi })},
	{"Figures 5/6: full-site cost over wire's, lowest", "4.93× (full-site runs carry no real overheads here)", 1, 1.02,
		headline(func(h experiments.Headline) float64 { return h.FullSiteOverWireLo })},
	{"Figures 5/6: wire's slowdown against the run's best setting", "1.02×–3.57×", 1.2, 9,
		headline(func(h experiments.Headline) float64 { return h.WireSlowdownLo }, func(h experiments.Headline) float64 { return h.WireSlowdownHi })},
	{"Figures 5/6: wire's slowdown against the run's best setting at u = 1 min", "1.02×–1.65×", 1.2, 2.85,
		func(r *results) (vs []value) {
			byRun := map[string][]experiments.CostCell{}
			var keys []string
			for _, c := range r.cost.Cells {
				if byRun[c.RunKey] == nil {
					keys = append(keys, c.RunKey)
				}
				byRun[c.RunKey] = append(byRun[c.RunKey], c)
			}
			for _, k := range keys {
				var sums []metrics.CostSummary
				for _, c := range byRun[k] {
					sums = append(sums, c.Summary)
				}
				rel := metrics.RelativeTimes(sums)
				for i, c := range byRun[k] {
					if c.Policy == "wire" && c.Unit == simtime.Minute {
						vs = append(vs, value{c.Display, rel[i]})
					}
				}
			}
			return vs
		}},
	{"Figures 5/6: share of wire settings within 2× of the run's best", "83.75 % of runs (the testbed profile is the open item)", 0.39, 0.42,
		headline(func(h experiments.Headline) float64 { return h.WireWithin2x })},

	// E7 — §IV-F.
	{"§IV-F: controller time over aggregate task time", "0.011 %–0.49 %", 0, 0.0049,
		func(r *results) (vs []value) {
			for _, row := range r.overhead {
				vs = append(vs, value{row.Display + " " + simtime.FormatDuration(row.Unit), row.Fraction})
			}
			return vs
		}},

	// E9 — Observation 2: a history-based planner's error grows with drift,
	// WIRE's online estimates do not inherit it.
	{"Observation 2: history-based mean estimate error, growth per drift step (s)", "grows with drift", 1e-9, inf,
		func(r *results) (vs []value) {
			last := map[string]experiments.HistoryRow{}
			for _, row := range r.history {
				if row.Policy != "history-based" {
					continue
				}
				if q, ok := last[row.RunKey]; ok {
					vs = append(vs, value{fmt.Sprintf("%s %gx→%gx", row.RunKey, q.Drift, row.Drift), row.MeanAbsErr - q.MeanAbsErr})
				}
				last[row.RunKey] = row
			}
			return vs
		}},
	{"Observation 2: under drift, history-based mean estimate error minus wire's (s)", "online prediction tracks the new run", 1e-9, inf,
		history(func(hist, wire experiments.HistoryRow) float64 { return hist.MeanAbsErr - wire.MeanAbsErr }, "", 1.5)},
	{"Observation 2: PageRank L's history-based cost over wire's at every drift", "estimate-sensitive pool sizing pays", 1.25, 1.27,
		history(func(hist, wire experiments.HistoryRow) float64 { return float64(hist.Cost) / float64(wire.Cost) }, "pagerank-l", 1)},
}

// linear reads one value of the Figure 2/3 points at ratios from minRatio.
func linear(points func(*results) []experiments.LinearPoint, minRatio float64, f func(experiments.LinearPoint) float64) func(*results) []value {
	return func(r *results) (vs []value) {
		for _, p := range points(r) {
			if p.Ratio >= minRatio {
				vs = append(vs, value{fmt.Sprintf("N=%d ratio=%g", p.N, p.Ratio), f(p)})
			}
		}
		return vs
	}
}

// oneInstance reads one value of the Figure 3 points whose whole stage fits
// in one charging unit.
func oneInstance(f func(experiments.LinearPoint) float64) func(*results) []value {
	return func(r *results) (vs []value) {
		for _, p := range r.fig3 {
			if p.Ratio >= float64(p.N) {
				vs = append(vs, value{fmt.Sprintf("N=%d U/R=%g", p.N, p.Ratio), f(p)})
			}
		}
		return vs
	}
}

// prediction reads one value of every run's summary of a stage class.
func prediction(class metrics.StageClass, f func(metrics.ErrorSummary) float64) func(*results) []value {
	return func(r *results) (vs []value) {
		for _, pr := range r.fig4 {
			if s, ok := pr.Summaries[class]; ok {
				vs = append(vs, value{pr.Display, f(s)})
			}
		}
		return vs
	}
}

// headline reads values of the Figures 5/6 headline.
func headline(fs ...func(experiments.Headline) float64) func(*results) []value {
	return func(r *results) (vs []value) {
		h := r.cost.Headline()
		for _, f := range fs {
			vs = append(vs, value{"headline", f(h)})
		}
		return vs
	}
}

// history compares the two policies of E9 at each run (all when runKey is
// empty) and each drift from minDrift on.
func history(f func(hist, wire experiments.HistoryRow) float64, runKey string, minDrift float64) func(*results) []value {
	return func(r *results) (vs []value) {
		hist := map[string]experiments.HistoryRow{}
		for _, row := range r.history {
			at := fmt.Sprintf("%s %gx", row.RunKey, row.Drift)
			if row.Policy == "history-based" {
				hist[at] = row
			} else if h, ok := hist[at]; ok && (runKey == "" || row.RunKey == runKey) && row.Drift >= minDrift {
				vs = append(vs, value{at, f(h, row)})
			}
		}
		return vs
	}
}

func TestPaperClaims(t *testing.T) {
	r := seedOne(t).res
	for _, c := range claims {
		vs := c.measure(r)
		if len(vs) == 0 {
			t.Errorf("claim %q measures nothing", c.name)
		}
		for _, v := range vs {
			if v.v < c.lo || v.v > c.hi || math.IsNaN(v.v) {
				t.Errorf("claim %q (paper: %s): %s measures %.4g, outside [%g, %g]", c.name, c.paper, v.at, v.v, c.lo, c.hi)
			}
		}
	}
}
