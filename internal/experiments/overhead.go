package experiments

import (
	"fmt"
	"time"

	"repro/internal/core"
	"repro/internal/parallel"
	"repro/internal/report"
	"repro/internal/sim"
	"repro/internal/simtime"
	"repro/internal/workloads"
)

// OverheadRow reports the controller cost of one wire run (§IV-F): real CPU
// time spent inside the MAPE loop relative to the workload's aggregate task
// execution time, plus the size of the controller's retained state.
type OverheadRow struct {
	RunKey   string
	Display  string
	Unit     simtime.Duration
	AggExec  simtime.Duration // aggregate task execution time (Table I metric)
	Wall     time.Duration    // total time inside Plan
	Iters    int
	Fraction float64 // Wall / AggExec
	// StateBytes approximates the controller's retained state (see
	// core.Controller.StateBytes): the prediction log and the predictor's
	// per-stage aggregates and per-task bookkeeping.
	StateBytes int
}

// OverheadExperiment measures the wire controller across all catalogued
// runs and charging units (experiment E7) on the shared worker pool. The
// wall-clock fraction is real CPU time inside Plan, so concurrent cells
// contend for cores; the measured fraction stays a valid upper bound
// (§IV-F reports orders of magnitude of headroom), and the structural
// columns are deterministic.
func OverheadExperiment(cfg Config) ([]OverheadRow, error) {
	runs := catalogueRuns(cfg)
	type cellSpec struct {
		run  workloads.Run
		unit simtime.Duration
	}
	var specs []cellSpec
	for _, run := range runs {
		for _, unit := range cfg.Units {
			specs = append(specs, cellSpec{run: run, unit: unit})
		}
	}
	return parallel.Map(len(specs), cfg.pool(), func(i int) (OverheadRow, error) {
		s := specs[i]
		wf := s.run.Generate(workloadSeed(cfg.Seed, s.run.Key, 0))
		ctrl := core.New(core.Config{})
		res, err := sim.Run(wf, ctrl, cfg.simConfig(s.unit, simSeed(cfg.Seed, s.run.Key, "wire", s.unit, 0)))
		if err != nil {
			return OverheadRow{}, fmt.Errorf("experiments: overhead %s/u=%v: %w", s.run.Key, s.unit, err)
		}
		agg := wf.AggregateExecTime()
		frac := 0.0
		if agg > 0 {
			frac = res.ControllerWall.Seconds() / agg
		}
		return OverheadRow{
			RunKey:     s.run.Key,
			Display:    s.run.Display,
			Unit:       s.unit,
			AggExec:    agg,
			Wall:       res.ControllerWall,
			Iters:      ctrl.Iterations(),
			Fraction:   frac,
			StateBytes: ctrl.StateBytes(),
		}, nil
	})
}

// OverheadReport renders the §IV-F table. The wall columns are measured
// real CPU time — the one output of the suite that is not reproducible
// byte-for-byte across invocations.
func OverheadReport(rows []OverheadRow) *report.Table {
	t := &report.Table{
		Title:   "§IV-F — WIRE controller overhead (wall columns are measured, not simulated)",
		Headers: []string{"run", "unit", "MAPE iters", "controller wall", "agg exec", "wall/agg", "state"},
	}
	for _, r := range rows {
		t.AddRow(
			r.Display, simtime.FormatDuration(r.Unit), r.Iters,
			r.Wall.Round(time.Microsecond).String(),
			simtime.FormatDuration(r.AggExec),
			// Fractions run near 1e-7: significant digits, not decimals.
			fmt.Sprintf("%.3g%%", r.Fraction*100),
			fmt.Sprintf("%.1fKB", float64(r.StateBytes)/1024),
		)
	}
	return t
}
