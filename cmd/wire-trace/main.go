// Command wire-trace executes one workflow under one policy and renders the
// run trace: a per-instance slot-occupancy Gantt chart, a pool-size
// sparkline, and (optionally) the raw event stream as CSV.
//
// Usage:
//
//	wire-trace -workflow pagerank-l -policy wire -unit 15m
//	wire-trace -workflow genome-s -policy pure-reactive -csv > events.csv
package main

import (
	"flag"
	"fmt"
	"os"
	"time"

	"repro/internal/cloud"
	"repro/internal/dist"
	"repro/internal/service"
	"repro/internal/sim"
	"repro/internal/simtime"
	"repro/internal/trace"
	"repro/internal/workloads"
)

func main() {
	workflow := flag.String("workflow", "pagerank-l", "catalogued run key (see wire-workflows)")
	policy := flag.String("policy", "wire", "wire | full-site | pure-reactive | reactive-conserving")
	unit := flag.Duration("unit", 15*time.Minute, "charging unit")
	lag := flag.Duration("lag", 3*time.Minute, "instantiation lag = MAPE interval")
	width := flag.Int("width", 100, "chart width in columns")
	seed := flag.Int64("seed", 1, "generation/interference seed")
	csvOut := flag.Bool("csv", false, "emit the raw event stream as CSV instead of charts")
	flag.Parse()

	run, ok := workloads.ByKey(*workflow)
	if !ok {
		fmt.Fprintf(os.Stderr, "wire-trace: unknown workflow %q; known keys: %v\n", *workflow, workloads.Keys())
		os.Exit(1)
	}
	wf := run.Generate(*seed)

	ctrl, err := service.NewPolicyController(*policy, nil)
	if err != nil {
		fmt.Fprintln(os.Stderr, "wire-trace:", err)
		os.Exit(1)
	}

	rec := trace.NewRecorder()
	cfg := sim.Config{
		Cloud: cloud.Config{
			SlotsPerInstance: 4,
			LagTime:          lag.Seconds(),
			ChargingUnit:     unit.Seconds(),
			MaxInstances:     12,
		},
		Seed:         *seed,
		Interference: dist.NewLognormalFromMean(1, 0.05),
		Observer:     rec.Hook(),
	}
	if *policy == "full-site" {
		cfg.InitialInstances = cfg.Cloud.MaxInstances
	}

	res, err := sim.Run(wf, ctrl, cfg)
	if err != nil {
		fmt.Fprintln(os.Stderr, "wire-trace:", err)
		os.Exit(1)
	}

	if *csvOut {
		if err := rec.WriteCSV(os.Stdout); err != nil {
			fmt.Fprintln(os.Stderr, "wire-trace:", err)
			os.Exit(1)
		}
		return
	}

	fmt.Printf("%s under %s — makespan %s, %d charging units, utilization %.1f%%, %d restarts\n\n",
		res.Workflow, res.Policy, simtime.FormatDuration(res.Makespan),
		res.UnitsCharged, res.Utilization*100, res.Restarts)
	fmt.Print(trace.Gantt(res, *width))
	fmt.Printf("\npool |%s| peak %d\n", trace.PoolSparkline(res, *width), res.PeakPool)
	counts := rec.CountByKind()
	fmt.Printf("\nevents: %d starts, %d completions, %d kills, %d launches, %d terminations, %d decisions\n",
		counts[sim.EvTaskStart], counts[sim.EvTaskComplete], counts[sim.EvTaskKilled],
		counts[sim.EvInstanceLaunch], counts[sim.EvInstanceTerminated], counts[sim.EvDecision])
}
