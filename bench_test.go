// Package repro's root benchmark harness: one benchmark per table/figure of
// the paper plus micro-benchmarks of the hot paths. Run with
//
//	go test -bench=. -benchmem
//
// Each BenchmarkTableX/BenchmarkFigureX regenerates the corresponding paper
// artifact on a reduced grid per iteration (the full-scale regeneration is
// `go run ./cmd/wire-bench`); reported metrics include the domain-level
// outputs via b.ReportMetric so the shape is visible in benchmark output.
package repro

import (
	"testing"

	"repro/internal/cloud"
	"repro/internal/core"
	"repro/internal/dag"
	"repro/internal/experiments"
	"repro/internal/lookahead"
	"repro/internal/monitor"
	"repro/internal/predict"
	"repro/internal/sim"
	"repro/internal/simtime"
	"repro/internal/steer"
	"repro/internal/workloads"
)

// benchCfg is the reduced grid shared by the per-figure benchmarks.
func benchCfg() experiments.Config {
	cfg := experiments.Defaults()
	cfg.Reps = 1
	cfg.Orders = 1
	cfg.Units = []simtime.Duration{1 * simtime.Minute, 30 * simtime.Minute}
	cfg.RunKeys = []string{"genome-s", "tpch6-s"}
	cfg.LinearNs = []int{10, 100}
	cfg.LinearRatios = []float64{2, 10, 100}
	return cfg
}

// BenchmarkTable1 regenerates the workload characterization (Table I).
func BenchmarkTable1(b *testing.B) {
	cfg := experiments.Defaults()
	for i := 0; i < b.N; i++ {
		rows := experiments.Table1(cfg)
		if len(rows) != 8 {
			b.Fatalf("rows = %d", len(rows))
		}
	}
}

// BenchmarkFigure2 regenerates the R > U linear study (Figure 2).
func BenchmarkFigure2(b *testing.B) {
	cfg := benchCfg()
	var last []experiments.LinearPoint
	for i := 0; i < b.N; i++ {
		pts, err := experiments.LinearSweep(cfg, experiments.RGreaterU)
		if err != nil {
			b.Fatal(err)
		}
		last = pts
	}
	reportWorst(b, last)
}

// BenchmarkFigure3 regenerates the R <= U linear study (Figure 3).
func BenchmarkFigure3(b *testing.B) {
	cfg := benchCfg()
	var last []experiments.LinearPoint
	for i := 0; i < b.N; i++ {
		pts, err := experiments.LinearSweep(cfg, experiments.RLessEqualU)
		if err != nil {
			b.Fatal(err)
		}
		last = pts
	}
	reportWorst(b, last)
}

func reportWorst(b *testing.B, pts []experiments.LinearPoint) {
	b.Helper()
	worstCost, worstTime := 0.0, 0.0
	for _, p := range pts {
		if p.CostRatio > worstCost {
			worstCost = p.CostRatio
		}
		if p.TimeRatio > worstTime {
			worstTime = p.TimeRatio
		}
	}
	b.ReportMetric(worstCost, "worst-cost/opt")
	b.ReportMetric(worstTime, "worst-time/opt")
}

// BenchmarkFigure4 regenerates the prediction-accuracy study (Figure 4).
func BenchmarkFigure4(b *testing.B) {
	cfg := benchCfg()
	var runs []experiments.PredictionRun
	for i := 0; i < b.N; i++ {
		var err error
		runs, err = experiments.PredictionExperiment(cfg)
		if err != nil {
			b.Fatal(err)
		}
	}
	n := 0
	for _, r := range runs {
		n += len(r.Samples)
	}
	b.ReportMetric(float64(n), "samples")
}

// BenchmarkFigure5 regenerates the resource-cost grid (Figure 5); Figure 6
// shares the same grid.
func BenchmarkFigure5(b *testing.B) {
	cfg := benchCfg()
	var res *experiments.CostResult
	for i := 0; i < b.N; i++ {
		var err error
		res, err = experiments.CostExperiment(cfg)
		if err != nil {
			b.Fatal(err)
		}
	}
	h := res.Headline()
	b.ReportMetric(h.FullSiteOverWireHi, "fullsite/wire-max")
	b.ReportMetric(h.WireSlowdownHi, "wire-slowdown-max")
}

// BenchmarkFigure6 recomputes the relative-execution-time view from the
// cost grid (the expensive part is shared with Figure 5; this isolates the
// normalization and reporting path).
func BenchmarkFigure6(b *testing.B) {
	cfg := benchCfg()
	res, err := experiments.CostExperiment(cfg)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tbl := res.Figure6Report()
		if len(tbl.Rows) == 0 {
			b.Fatal("empty figure 6")
		}
	}
}

// BenchmarkOverhead regenerates the §IV-F controller-overhead study.
func BenchmarkOverhead(b *testing.B) {
	cfg := benchCfg()
	var rows []experiments.OverheadRow
	for i := 0; i < b.N; i++ {
		var err error
		rows, err = experiments.OverheadExperiment(cfg)
		if err != nil {
			b.Fatal(err)
		}
	}
	worst := 0.0
	for _, r := range rows {
		if r.Fraction > worst {
			worst = r.Fraction
		}
	}
	b.ReportMetric(worst*100, "overhead-%")
}

// BenchmarkExecutionSim measures raw simulator throughput: one full
// Genome S run under the static full-site policy.
func BenchmarkExecutionSim(b *testing.B) {
	run, _ := workloads.ByKey("genome-s")
	wf := run.Generate(1)
	cfg := sim.Config{
		Cloud:            cloud.Config{SlotsPerInstance: 4, LagTime: 180, ChargingUnit: 900, MaxInstances: 12},
		InitialInstances: 12,
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := sim.Run(wf, staticCtrl{}, cfg); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(wf.NumTasks()), "tasks/run")
}

// BenchmarkWireRun measures one full Genome S run under the WIRE
// controller (MAPE loop + lookahead + steering included).
func BenchmarkWireRun(b *testing.B) {
	run, _ := workloads.ByKey("genome-s")
	wf := run.Generate(1)
	cfg := sim.Config{
		Cloud: cloud.Config{SlotsPerInstance: 4, LagTime: 180, ChargingUnit: 900, MaxInstances: 12},
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := sim.Run(wf, core.New(core.Config{}), cfg); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkMAPEIteration measures a single controller Plan call on a
// mid-run Genome L snapshot — the §IV-F per-iteration cost.
func BenchmarkMAPEIteration(b *testing.B) {
	run, _ := workloads.ByKey("genome-l")
	wf := run.Generate(1)
	snap := midRunSnapshot(b, wf)
	ctrl := core.New(core.Config{})
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = ctrl.Plan(snap)
	}
}

// BenchmarkLookahead isolates the online workflow simulator on Genome L.
func BenchmarkLookahead(b *testing.B) {
	run, _ := workloads.ByKey("genome-l")
	wf := run.Generate(1)
	snap := midRunSnapshot(b, wf)
	pred := predict.New(predict.Config{})
	pred.Update(snap)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if load := lookahead.Project(snap, pred); load == nil {
			b.Fatal("nil load")
		}
	}
}

// BenchmarkResizePool isolates Algorithm 3 on a 4005-entry load.
func BenchmarkResizePool(b *testing.B) {
	remaining := make([]float64, 4005)
	for i := range remaining {
		remaining[i] = float64(1 + i%60)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if p := steer.ResizePool(remaining, 900, 4, 0.2); p <= 0 {
			b.Fatal("bad p")
		}
	}
}

// staticCtrl is a no-op controller for the raw-simulator benchmark.
type staticCtrl struct{}

func (staticCtrl) Name() string                        { return "bench-static" }
func (staticCtrl) Plan(*monitor.Snapshot) sim.Decision { return sim.Decision{} }

// snapGrabber wraps a controller and keeps a copy of every snapshot it sees,
// so benchmarks can replay a realistic mid-run monitoring state.
type snapGrabber struct {
	inner sim.Controller
	snaps []*monitor.Snapshot
}

func (g *snapGrabber) Name() string { return g.inner.Name() }

func (g *snapGrabber) Plan(s *monitor.Snapshot) sim.Decision {
	g.snaps = append(g.snaps, s.Clone())
	return g.inner.Plan(s)
}

// midRunSnapshot executes the workflow once under WIRE and returns the
// middle monitoring snapshot of the run.
func midRunSnapshot(b *testing.B, wf *workloadsWorkflow) *monitor.Snapshot {
	g := &snapGrabber{inner: core.New(core.Config{})}
	cfg := sim.Config{
		Cloud: cloud.Config{SlotsPerInstance: 4, LagTime: 180, ChargingUnit: 900, MaxInstances: 12},
	}
	if _, err := sim.Run(wf, g, cfg); err != nil {
		b.Fatal(err)
	}
	if len(g.snaps) == 0 {
		b.Fatal("no snapshots captured")
	}
	return g.snaps[len(g.snaps)/2]
}

// workloadsWorkflow aliases the DAG type to keep the helper signature short.
type workloadsWorkflow = dag.Workflow
