package experiments

import (
	"fmt"

	"repro/internal/baseline"
	"repro/internal/core"
	"repro/internal/dag"
	"repro/internal/parallel"
	"repro/internal/report"
	"repro/internal/sim"
	"repro/internal/simtime"
	"repro/internal/stats"
)

// HistoryRow compares online (wire) and history-based steering on one
// across-run drift scenario.
type HistoryRow struct {
	RunKey string
	// Drift is the multiplicative shift applied to every task's true
	// execution time between the profiled run and the new run (1.0 = the
	// recurrent-run assumption holds).
	Drift float64
	// Policy is "wire" or "history-based".
	Policy string

	Cost        int
	Makespan    simtime.Duration
	Utilization float64
	// MeanAbsErr is the mean |estimated − actual| execution time over
	// all tasks, measuring how wrong each policy's estimates were.
	MeanAbsErr float64
}

// HistoryExperiment reproduces the paper's Observation 2 argument (§II-B):
// history-based planners inherit a previous run's statistics, so when task
// times drift across runs — different dataset, slower instances,
// interference — their estimates are systematically wrong, while WIRE's
// online models track the run that is actually happening.
//
// Protocol per workload: (1) profile a run at drift 1.0 under full-site and
// record per-stage medians; (2) for each drift factor, scale the new run's
// true execution times and execute it under wire and under the
// history-based controller fed the stale profile; (3) report cost,
// makespan, and estimate error.
func HistoryExperiment(cfg Config) ([]HistoryRow, error) {
	// One-minute units: the most elastic setting, where wrong estimates
	// translate directly into wrong pool sizes.
	unit := 1 * simtime.Minute
	drifts := []float64{1.0, 1.5, 2.5}
	runs := catalogueRuns(cfg)

	// Phase 1 — profile runs (the recurrent job's previous execution),
	// one pool cell per workload.
	profiles, err := parallel.Map(len(runs), cfg.pool(), func(i int) (baseline.StageProfile, error) {
		run := runs[i]
		profWF := run.Generate(workloadSeed(cfg.Seed, run.Key, 0))
		profCfg := cfg.simConfig(unit, simSeed(cfg.Seed, run.Key, "full-site", unit, 0))
		profCfg.InitialInstances = cfg.MaxInstances
		profRes, err := sim.Run(profWF, baseline.Static{}, profCfg)
		if err != nil {
			return baseline.StageProfile{}, fmt.Errorf("experiments: history profile %s: %w", run.Key, err)
		}
		return baseline.ProfileFromResult(profRes), nil
	})
	if err != nil {
		return nil, err
	}

	// Phase 2 — the drift × policy grid. Within one (run, drift) pair
	// both policies see the identical new dataset instance (rep 1) and
	// interference stream, so the comparison isolates the steering.
	type cellSpec struct {
		runIdx int
		drift  float64
		policy string
	}
	var specs []cellSpec
	for i := range runs {
		for _, drift := range drifts {
			for _, policy := range []string{"history-based", "wire"} {
				specs = append(specs, cellSpec{runIdx: i, drift: drift, policy: policy})
			}
		}
	}
	return parallel.Map(len(specs), cfg.pool(), func(i int) (HistoryRow, error) {
		s := specs[i]
		run := runs[s.runIdx]
		wf := run.Generate(workloadSeed(cfg.Seed, run.Key, 1)) // a different dataset instance
		scaleExecTimes(wf, s.drift)

		var ctrl sim.Controller
		hist := baseline.NewHistoryBased(profiles[s.runIdx])
		wired := core.New(core.Config{})
		if s.policy == "wire" {
			ctrl = wired
		} else {
			ctrl = hist
		}
		res, err := sim.Run(wf, ctrl, cfg.simConfig(unit, simSeed(cfg.Seed, run.Key, "drifted", unit, 1)))
		if err != nil {
			return HistoryRow{}, fmt.Errorf("experiments: history %s/%s drift=%v: %w", run.Key, s.policy, s.drift, err)
		}
		return HistoryRow{
			RunKey:      run.Key,
			Drift:       s.drift,
			Policy:      s.policy,
			Cost:        res.UnitsCharged,
			Makespan:    res.Makespan,
			Utilization: res.Utilization,
			MeanAbsErr:  estimateError(s.policy, wf, res, hist, wired),
		}, nil
	})
}

// scaleExecTimes applies the across-run drift to the ground truth.
func scaleExecTimes(wf *dag.Workflow, factor float64) {
	for _, t := range wf.Tasks {
		t.ExecTime *= factor
	}
}

// estimateError measures each policy's per-task execution-time estimate
// against the observed times of the new run.
func estimateError(policy string, wf *dag.Workflow, res *sim.Result, hist *baseline.HistoryBased, wired *core.Controller) float64 {
	var errs []float64
	if policy == "history-based" {
		for _, tr := range res.TaskRuns {
			est := hist.EstimateExec(tr.Stage)
			d := est - tr.ObservedExec
			if d < 0 {
				d = -d
			}
			errs = append(errs, d)
		}
	} else {
		preds := wired.PreStartPredictions()
		for _, tr := range res.TaskRuns {
			if int(tr.Task) >= len(preds) || preds[tr.Task].Policy < 3 {
				continue // only completed-data policies are comparable
			}
			d := preds[tr.Task].EstimatedExec - tr.ObservedExec
			if d < 0 {
				d = -d
			}
			errs = append(errs, d)
		}
	}
	m, _ := stats.Mean(errs)
	return m
}

// HistoryReport renders the across-run comparison.
func HistoryReport(rows []HistoryRow) *report.Table {
	t := &report.Table{
		Title:   "Observation 2 — online (wire) vs history-based steering under across-run drift",
		Headers: []string{"run", "drift", "policy", "cost", "makespan", "util", "mean|est err|"},
	}
	for _, r := range rows {
		t.AddRow(r.RunKey, report.F(r.Drift, 1)+"x", r.Policy, r.Cost,
			simtime.FormatDuration(r.Makespan), report.F(r.Utilization*100, 1)+"%",
			report.F(r.MeanAbsErr, 2)+"s")
	}
	return t
}
