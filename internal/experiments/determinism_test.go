package experiments

import (
	"reflect"
	"strings"
	"testing"
)

// renderSuite runs the quick-config cost grid and Figure 2 sweep at one
// worker count and renders everything to a string.
func renderSuite(t *testing.T, workers int) (string, *CostResult, []LinearPoint) {
	t.Helper()
	cfg := Quick()
	cfg.Workers = workers
	cost, err := CostExperiment(cfg)
	if err != nil {
		t.Fatal(err)
	}
	points, err := LinearSweep(cfg, RGreaterU)
	if err != nil {
		t.Fatal(err)
	}
	var sb strings.Builder
	if err := cost.Figure5Report().Render(&sb); err != nil {
		t.Fatal(err)
	}
	if err := cost.Figure6Report().Render(&sb); err != nil {
		t.Fatal(err)
	}
	if err := LinearReport(points).Render(&sb); err != nil {
		t.Fatal(err)
	}
	return sb.String(), cost, points
}

func TestDeterminismAcrossWorkerCounts(t *testing.T) {
	// The acceptance property of the parallel runner: identical seeds
	// must yield byte-identical results at any parallelism. Quick's
	// (run, rep) instances each serve 2 units x 4 policies, so at 8
	// workers every worker runs on one shared workflow at once, which is
	// where -race sees a simulator or controller writing it.
	out1, cost1, pts1 := renderSuite(t, 1)
	out8, cost8, pts8 := renderSuite(t, 8)
	if out1 != out8 {
		t.Fatalf("rendered output differs between workers=1 and workers=8:\n--- w1 ---\n%s\n--- w8 ---\n%s", out1, out8)
	}
	// ControllerWallMean is real CPU time, the one legitimately
	// nondeterministic field; everything else must match exactly.
	strip := func(cells []CostCell) []CostCell {
		out := append([]CostCell(nil), cells...)
		for i := range out {
			out[i].Summary.ControllerWallMean = 0
		}
		return out
	}
	if !reflect.DeepEqual(strip(cost1.Cells), strip(cost8.Cells)) {
		t.Fatal("cost cells differ between workers=1 and workers=8")
	}
	if !reflect.DeepEqual(pts1, pts8) {
		t.Fatal("linear points differ between workers=1 and workers=8")
	}
}

func TestPredictionDeterministicAcrossWorkerCounts(t *testing.T) {
	cfg := tiny()
	cfg.RunKeys = []string{"genome-s", "tpch6-s", "pagerank-s"}
	cfg.Reps, cfg.Orders = 2, 2
	run := func(workers int) []PredictionRun {
		c := cfg
		c.Workers = workers
		out, err := PredictionExperiment(c)
		if err != nil {
			t.Fatal(err)
		}
		return out
	}
	if a, b := run(1), run(8); !reflect.DeepEqual(a, b) {
		t.Fatal("prediction runs differ between workers=1 and workers=8")
	}
}

func TestProgressCallbackCountsSimulatedRuns(t *testing.T) {
	cfg := tiny()
	cfg.Reps = 2
	total := -1
	final := 0
	// Workers=1 keeps the callback sequential so plain ints are safe.
	cfg.Workers = 1
	cfg.Progress = func(done, n int) { final, total = done, n }
	if _, err := CostExperiment(cfg); err != nil {
		t.Fatal(err)
	}
	want := len(PolicyNames) * 2 // 1 run x 1 unit x 4 policies x 2 reps
	if total != want || final != want {
		t.Fatalf("progress saw %d/%d, want %d/%d", final, total, want, want)
	}
}
