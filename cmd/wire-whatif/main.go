// Command wire-whatif answers capacity-planning questions before renting
// anything: for a given workflow it sweeps charging units × policies on the
// simulator and prints the cost/time frontier, plus the cheapest setting
// that stays within a chosen slowdown budget. The site has a 3-minute
// instantiation lag and at most 12 instances; the units swept are 1m, 5m,
// 15m, 30m and 1h.
//
// Usage:
//
//	wire-whatif -workflow genome-l
//	wire-whatif -workflow tpch6-s -budget 1.5
package main

import (
	"flag"
	"fmt"
	"os"

	"repro/internal/cloud"
	"repro/internal/dag"
	"repro/internal/dist"
	"repro/internal/report"
	"repro/internal/service"
	"repro/internal/sim"
	"repro/internal/simtime"
	"repro/internal/workloads"
)

func main() {
	workflow := flag.String("workflow", "genome-s", "catalogued run key (see wire-workflows)")
	budget := flag.Float64("budget", 2.0, "acceptable slowdown vs the fastest observed setting")
	slots := flag.Int("slots", 4, "task slots per worker instance")
	seed := flag.Int64("seed", 1, "generation/interference seed")
	flag.Parse()

	wf, err := load(*workflow, *seed)
	if err != nil {
		fail(err)
	}
	const maxInst = 12
	units := []simtime.Duration{simtime.Minute, 5 * simtime.Minute, 15 * simtime.Minute, 30 * simtime.Minute, simtime.Hour}

	type cell struct {
		policy string
		unit   simtime.Duration
		cost   int
		span   simtime.Duration
	}
	var cells []cell
	fastest := 0.0
	for _, unit := range units {
		for _, policy := range []string{"full-site", "pure-reactive", "reactive-conserving", "wire"} {
			cfg := sim.Config{
				Cloud: cloud.Config{
					SlotsPerInstance: *slots,
					LagTime:          3 * simtime.Minute,
					ChargingUnit:     unit,
					MaxInstances:     maxInst,
				},
				Seed:         *seed,
				Interference: dist.NewLognormalFromMean(1, 0.05),
			}
			ctrl, err := service.NewPolicyController(policy, nil)
			if err != nil {
				fail(err)
			}
			if policy == "full-site" {
				cfg.InitialInstances = maxInst
			}
			res, err := sim.Run(wf, ctrl, cfg)
			if err != nil {
				fail(fmt.Errorf("%s/u=%v: %w", policy, unit, err))
			}
			cells = append(cells, cell{policy, unit, res.UnitsCharged, res.Makespan})
			if fastest == 0 || res.Makespan < fastest {
				fastest = res.Makespan
			}
		}
	}

	t := &report.Table{
		Title:   fmt.Sprintf("What-if frontier — %s (%d tasks, %d stages)", wf.Name, wf.NumTasks(), wf.NumStages()),
		Headers: []string{"unit", "policy", "cost (units)", "paid time", "makespan", "slowdown"},
	}
	bestCost := -1
	var best cell
	for _, c := range cells {
		slow := c.span / fastest
		t.AddRow(
			simtime.FormatDuration(c.unit), c.policy, c.cost,
			simtime.FormatDuration(float64(c.cost)*c.unit),
			simtime.FormatDuration(c.span),
			report.Ratio(slow),
		)
		// Cheapest paid time within the slowdown budget.
		paid := float64(c.cost) * c.unit
		if slow <= *budget && (bestCost < 0 || paid < float64(bestCost)) {
			bestCost = int(paid)
			best = c
		}
	}
	if err := t.Render(os.Stdout); err != nil {
		fail(err)
	}
	if bestCost >= 0 {
		fmt.Printf("\ncheapest setting within %.2fx of the fastest run: %s at u=%s "+
			"(%d units, makespan %s)\n",
			*budget, best.policy, simtime.FormatDuration(best.unit), best.cost,
			simtime.FormatDuration(best.span))
	} else {
		fmt.Printf("\nno setting stayed within %.2fx of the fastest run\n", *budget)
	}
}

func load(key string, seed int64) (*dag.Workflow, error) {
	run, ok := workloads.ByKey(key)
	if !ok {
		return nil, fmt.Errorf("unknown workflow %q; known keys: %v", key, workloads.Keys())
	}
	return run.Generate(seed), nil
}

func fail(err error) {
	fmt.Fprintln(os.Stderr, "wire-whatif:", err)
	os.Exit(1)
}
