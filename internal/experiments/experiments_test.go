package experiments

import (
	"math/rand"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/dag"
	"repro/internal/metrics"
	"repro/internal/sim"
	"repro/internal/simtime"
	"repro/internal/workloads"
)

// tiny returns a config that keeps test runtimes small.
func tiny() Config {
	cfg := Defaults()
	cfg.Reps = 1
	cfg.Orders = 1
	cfg.Units = []simtime.Duration{1 * simtime.Minute}
	cfg.RunKeys = []string{"tpch6-s"}
	cfg.LinearNs = []int{10}
	cfg.LinearRatios = []float64{2, 5}
	return cfg
}

func TestTable1(t *testing.T) {
	rows := Table1(Defaults())
	if len(rows) != 8 {
		t.Fatalf("rows = %d, want 8", len(rows))
	}
	for _, r := range rows {
		if r.Tasks != r.PaperTask {
			t.Errorf("%s: tasks %d != paper %d", r.Run.Key, r.Tasks, r.PaperTask)
		}
		if r.Stages != r.Run.Paper.Stages {
			t.Errorf("%s: stages %d != paper %d", r.Run.Key, r.Stages, r.Run.Paper.Stages)
		}
	}
	tbl := Table1Report(rows)
	var sb strings.Builder
	if err := tbl.Render(&sb); err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"Genome S", "PageRank L", "405", "4005"} {
		if !strings.Contains(sb.String(), want) {
			t.Fatalf("table missing %q", want)
		}
	}
}

func TestLinearFigure2Shape(t *testing.T) {
	// R > U: cost and time ratios must be bounded and must approach 1 as
	// R/U grows (the Figure 2 claims).
	near, err := LinearPointRun(10, 2, RGreaterU)
	if err != nil {
		t.Fatal(err)
	}
	far, err := LinearPointRun(10, 100, RGreaterU)
	if err != nil {
		t.Fatal(err)
	}
	if near.CostRatio < 1-1e-9 || near.CostRatio > 1.7 {
		t.Fatalf("cost ratio at R/U=2: %v", near.CostRatio)
	}
	if near.TimeRatio < 1-1e-9 || near.TimeRatio > 2.2 {
		t.Fatalf("time ratio at R/U=2: %v", near.TimeRatio)
	}
	if far.CostRatio > 1.05 || far.TimeRatio > 1.1 {
		t.Fatalf("far regime not near-optimal: cost=%v time=%v", far.CostRatio, far.TimeRatio)
	}
	if far.CostRatio > near.CostRatio || far.TimeRatio > near.TimeRatio {
		t.Fatal("ratios did not improve with R/U")
	}
	if near.Restarts != 0 || far.Restarts != 0 {
		t.Fatalf("restarts: %d/%d", near.Restarts, far.Restarts)
	}
}

func TestLinearFigure3WideDeviation(t *testing.T) {
	// R <= U with U/R large: elasticity cannot help; the algorithm runs
	// nearly sequentially (time ~ N) and cost deviates once U exceeds
	// the total work (Figure 3's wide-deviation claim).
	pt, err := LinearPointRun(10, 100, RLessEqualU)
	if err != nil {
		t.Fatal(err)
	}
	if pt.TimeRatio < 5 {
		t.Fatalf("time ratio = %v, want near-sequential (~10)", pt.TimeRatio)
	}
	// Total work NR = 600s fits in one U=6000s unit: cost = 1 unit, while
	// the optimum NR/U = 0.1 -> ratio 10.
	if pt.CostRatio < 5 {
		t.Fatalf("cost ratio = %v, want ~10", pt.CostRatio)
	}
	if pt.PeakPool != 1 {
		t.Fatalf("peak pool = %d, want 1", pt.PeakPool)
	}
}

func TestLinearSection3EWorkedExample(t *testing.T) {
	// P=1, R = U - eps (§III-E): all instances fully utilized, cost near
	// the optimum N units, completion within ~2R... the batch-growth
	// discretization lands slightly above; assert the paper's
	// qualitative claims with tolerance.
	pt, err := LinearPointRun(20, 0.98, RLessEqualU)
	if err != nil {
		t.Fatal(err)
	}
	if pt.CostRatio > 1.8 {
		t.Fatalf("cost ratio = %v, want near 1", pt.CostRatio)
	}
	if pt.TimeRatio > 3.5 {
		t.Fatalf("time ratio = %v, want within a small factor of 2", pt.TimeRatio)
	}
}

func TestLinearSweepAndReport(t *testing.T) {
	cfg := tiny()
	pts, err := LinearSweep(cfg, RGreaterU)
	if err != nil {
		t.Fatal(err)
	}
	if len(pts) != len(cfg.LinearNs)*len(cfg.LinearRatios) {
		t.Fatalf("points = %d", len(pts))
	}
	var sb strings.Builder
	if err := LinearReport(pts).Render(&sb); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(sb.String(), "R > U") {
		t.Fatal("report title wrong")
	}
	// Figure 3 also sweeps a wide stage at a coarse unit: n = 100, U/R = 100.
	cfg.LinearNs = []int{10, 100}
	cfg.LinearRatios = []float64{2, 10, 100}
	var sb3 strings.Builder
	pts3, err := LinearSweep(cfg, RLessEqualU)
	if err != nil {
		t.Fatal(err)
	}
	if len(pts3) != len(cfg.LinearNs)*len(cfg.LinearRatios) {
		t.Fatalf("fig3 points = %d", len(pts3))
	}
	if err := LinearReport(pts3).Render(&sb3); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(sb3.String(), "R <= U") {
		t.Fatal("fig3 report title wrong")
	}
}

func TestCostExperimentGrid(t *testing.T) {
	cfg := tiny()
	res, err := CostExperiment(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Cells) != len(PolicyNames) {
		t.Fatalf("cells = %d", len(res.Cells))
	}
	full, ok := res.Cell("tpch6-s", "full-site", 60)
	if !ok {
		t.Fatal("full-site cell missing")
	}
	w, ok := res.Cell("tpch6-s", "wire", 60)
	if !ok {
		t.Fatal("wire cell missing")
	}
	// Full-site rents 12 instances for the whole run; wire must be far
	// cheaper on this short workflow.
	if w.Summary.CostMean >= full.Summary.CostMean {
		t.Fatalf("wire %v >= full-site %v", w.Summary.CostMean, full.Summary.CostMean)
	}
	// Full-site is the fastest setting.
	if full.Summary.MakespanMean > w.Summary.MakespanMean {
		t.Fatalf("full-site slower than wire: %v vs %v", full.Summary.MakespanMean, w.Summary.MakespanMean)
	}
	for _, rep := range []func() *strings.Builder{
		func() *strings.Builder { var sb strings.Builder; _ = res.Figure5Report().Render(&sb); return &sb },
		func() *strings.Builder { var sb strings.Builder; _ = res.Figure6Report().Render(&sb); return &sb },
	} {
		if out := rep().String(); !strings.Contains(out, "TPCH-6 S") {
			t.Fatalf("report missing run row:\n%s", out)
		}
	}
	h := res.Headline()
	if h.FullSiteOverWireHi < 1 {
		t.Fatalf("headline full-site ratio = %+v", h)
	}
	if h.WireSlowdownLo < 1-1e-9 {
		t.Fatalf("wire slowdown below 1: %+v", h)
	}
}

func TestPredictionExperiment(t *testing.T) {
	cfg := tiny()
	runs, err := PredictionExperiment(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(runs) != 1 {
		t.Fatalf("runs = %d", len(runs))
	}
	pr := runs[0]
	// TPCH-6 S: one 32-task stage -> 31 predictions per order.
	if len(pr.Samples) != 31 {
		t.Fatalf("samples = %d, want 31", len(pr.Samples))
	}
	short, ok := pr.Summaries[metrics.ShortStage]
	if !ok {
		t.Fatalf("no short-stage summary: %+v", pr.Summaries)
	}
	// The generator's unexplained noise is small; grouped predictions
	// must mostly land within a second (§IV-D's headline).
	if short.FracWithin1s < 0.5 {
		t.Fatalf("short-stage accuracy too low: %+v", short)
	}
	var sb strings.Builder
	if err := PredictionReport(runs).Render(&sb); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(sb.String(), "TPCH-6 S") {
		t.Fatal("prediction report missing run")
	}
}

func TestReplayStageExactGroups(t *testing.T) {
	// All tasks share one input size and one observed time: every
	// prediction after the first completion must be exact.
	b := dag.NewBuilder("exact")
	st := b.AddStage("s")
	for i := 0; i < 6; i++ {
		b.AddTask(st, "t", 10, 0, 100)
	}
	wf := b.MustBuild()
	observed := map[dag.TaskID]float64{}
	for i := 0; i < 6; i++ {
		observed[dag.TaskID(i)] = 10
	}
	rng := rand.New(rand.NewSource(1))
	samples := replayStages(wf, observed, rng)
	if len(samples) != 5 {
		t.Fatalf("samples = %d", len(samples))
	}
	for _, s := range samples {
		if s.TrueError() != 0 {
			t.Fatalf("expected exact prediction, got %+v", s)
		}
	}
}

func TestOverheadExperiment(t *testing.T) {
	cfg := tiny()
	rows, err := OverheadExperiment(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 1 {
		t.Fatalf("rows = %d", len(rows))
	}
	r := rows[0]
	if r.Iters <= 0 || r.Wall <= 0 {
		t.Fatalf("row = %+v", r)
	}
	// The paper reports 0.011%-0.49% controller overhead; the pure-Go
	// controller must stay well under a generous 5% of aggregate task
	// time.
	if r.Fraction > 0.05 {
		t.Fatalf("overhead fraction = %v", r.Fraction)
	}
	if r.StateBytes <= 0 {
		t.Fatal("state estimate missing")
	}
	var sb strings.Builder
	if err := OverheadReport(rows).Render(&sb); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(sb.String(), "TPCH-6 S") {
		t.Fatal("overhead report missing run")
	}
}

func TestQuickAndDefaultConfigs(t *testing.T) {
	d := Defaults()
	if len(d.Units) != 4 || d.Reps != 3 || d.Orders != 5 {
		t.Fatalf("defaults = %+v", d)
	}
	q := Quick()
	if len(q.RunKeys) == 0 || q.Reps >= d.Reps {
		t.Fatalf("quick = %+v", q)
	}
	if _, ok := workloads.ByKey(q.RunKeys[0]); !ok {
		t.Fatal("quick run key unknown")
	}
}

func TestCatalogueRunsFilter(t *testing.T) {
	cfg := Defaults()
	cfg.RunKeys = []string{"genome-l", "bogus", "tpch1-s"}
	runs := catalogueRuns(cfg)
	if len(runs) != 2 || runs[0].Key != "genome-l" || runs[1].Key != "tpch1-s" {
		t.Fatalf("runs = %+v", runs)
	}
}

func TestAblationExperiment(t *testing.T) {
	cfg := Defaults()
	cfg.Orders = 1
	rows, err := AblationExperiment(cfg)
	if err != nil {
		t.Fatal(err)
	}
	byStudy := map[string][]AblationRow{}
	for _, r := range rows {
		byStudy[r.Study] = append(byStudy[r.Study], r)
	}
	for _, study := range []string{"util-target", "first-five", "restart-frac", "charge-origin", "ogd-epochs"} {
		if len(byStudy[study]) < 2 {
			t.Fatalf("study %s has %d rows", study, len(byStudy[study]))
		}
	}
	// Lower utilization targets must not slow the run down.
	ut := byStudy["util-target"]
	if ut[len(ut)-1].Makespan >= ut[0].Makespan {
		t.Fatalf("theta=0.4 makespan %v not below theta=1.0 %v", ut[len(ut)-1].Makespan, ut[0].Makespan)
	}
	// Billing from the launch request can only cost more.
	co := byStudy["charge-origin"]
	if co[1].Cost < co[0].Cost {
		t.Fatalf("charge-from-request cheaper: %+v", co)
	}
	var sb strings.Builder
	if err := AblationReport(rows).Render(&sb); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(sb.String(), "util-target") {
		t.Fatal("ablation report missing study")
	}
}

func TestUtilizationTargetTradesCostForSpeed(t *testing.T) {
	// The §IV-A aggressiveness knob: on Genome L at u=30m, theta=0.4 must
	// be materially faster than the default.
	run, _ := workloads.ByKey("genome-l")
	wf := run.Generate(1)
	cfg := Defaults()
	base, err := simRunWire(cfg, wf, 0)
	if err != nil {
		t.Fatal(err)
	}
	fast, err := simRunWireTarget(cfg, wf, 0, 0.4)
	if err != nil {
		t.Fatal(err)
	}
	if fast.Makespan >= base.Makespan*0.8 {
		t.Fatalf("theta=0.4 makespan %v vs default %v", fast.Makespan, base.Makespan)
	}
}

// simRunWire / simRunWireTarget are test helpers running one wire execution
// at u = 30 min.
func simRunWire(cfg Config, wf *dag.Workflow, rep int64) (*sim.Result, error) {
	return sim.Run(wf, core.New(core.Config{}), cfg.simConfig(30*simtime.Minute, cfg.Seed+rep))
}

func simRunWireTarget(cfg Config, wf *dag.Workflow, rep int64, theta float64) (*sim.Result, error) {
	ctrl := core.New(core.Config{UtilizationTarget: theta})
	return sim.Run(wf, ctrl, cfg.simConfig(30*simtime.Minute, cfg.Seed+rep))
}

func TestCostExperimentParallelDeterministic(t *testing.T) {
	cfg := tiny()
	cfg.RunKeys = []string{"tpch6-s", "pagerank-s"}
	cfg.Units = []simtime.Duration{1 * simtime.Minute, 30 * simtime.Minute}
	a, err := CostExperiment(cfg)
	if err != nil {
		t.Fatal(err)
	}
	b, err := CostExperiment(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(a.Cells) != len(b.Cells) {
		t.Fatal("cell counts differ")
	}
	for i := range a.Cells {
		ca, cb := a.Cells[i], b.Cells[i]
		if ca.RunKey != cb.RunKey || ca.Policy != cb.Policy || ca.Unit != cb.Unit {
			t.Fatalf("cell order differs at %d: %+v vs %+v", i, ca, cb)
		}
		if ca.Summary.CostMean != cb.Summary.CostMean || ca.Summary.MakespanMean != cb.Summary.MakespanMean {
			t.Fatalf("cell %d nondeterministic", i)
		}
	}
}

func TestLinearCharts(t *testing.T) {
	pts, err := LinearSweep(tiny(), RGreaterU)
	if err != nil {
		t.Fatal(err)
	}
	cost, tm := LinearCharts(pts)
	var sb strings.Builder
	if err := cost.WriteSVG(&sb); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(sb.String(), "resource usage") {
		t.Fatal("cost chart title wrong")
	}
	sb.Reset()
	if err := tm.WriteSVG(&sb); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(sb.String(), "completion time") {
		t.Fatal("time chart title wrong")
	}
}

func TestPredictionCharts(t *testing.T) {
	runs, err := PredictionExperiment(tiny())
	if err != nil {
		t.Fatal(err)
	}
	charts := PredictionCharts(runs)
	if len(charts) == 0 {
		t.Fatal("no prediction charts")
	}
	var sb strings.Builder
	if err := charts[0].WriteSVG(&sb); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(sb.String(), "Figure 4") {
		t.Fatal("chart title wrong")
	}
}

func TestCostCharts(t *testing.T) {
	res, err := CostExperiment(tiny())
	if err != nil {
		t.Fatal(err)
	}
	c5, c6 := CostCharts(res, "tpch6-s")
	if c5 == nil || c6 == nil {
		t.Fatal("nil charts")
	}
	var sb strings.Builder
	if err := c5.WriteSVG(&sb); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(sb.String(), "TPCH-6 S") {
		t.Fatal("bar chart missing run name")
	}
	if a, b := CostCharts(res, "bogus"); a != nil || b != nil {
		t.Fatal("unknown run should give nil charts")
	}
}

func TestWriteFigureSVGs(t *testing.T) {
	dir := t.TempDir()
	files, err := WriteFigureSVGs(tiny(), dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(files) < 6 {
		t.Fatalf("files = %v", files)
	}
}

func TestHistoryExperiment(t *testing.T) {
	cfg := tiny()
	cfg.RunKeys = []string{"pagerank-s"}
	rows, err := HistoryExperiment(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 6 { // 3 drifts x 2 policies
		t.Fatalf("rows = %d", len(rows))
	}
	// At maximum drift, the history-based estimate error must exceed
	// wire's (Observation 2).
	var histErr, wireErr float64
	for _, r := range rows {
		if r.Drift != 2.5 {
			continue
		}
		if r.Policy == "history-based" {
			histErr = r.MeanAbsErr
		} else {
			wireErr = r.MeanAbsErr
		}
	}
	if histErr <= wireErr {
		t.Fatalf("history err %v <= wire err %v at drift 2.5", histErr, wireErr)
	}
	var sb strings.Builder
	if err := HistoryReport(rows).Render(&sb); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(sb.String(), "history-based") {
		t.Fatal("report missing policy")
	}
}
