// Command wire-trace executes one catalogued workflow under WIRE (15-minute
// charging unit, 3-minute instantiation lag) and renders the run trace: a
// per-instance slot-occupancy Gantt chart and a pool-size sparkline, 100
// columns wide.
//
// Usage:
//
//	wire-trace -workflow pagerank-l -seed 2
package main

import (
	"flag"
	"fmt"
	"os"

	"repro/internal/cloud"
	"repro/internal/core"
	"repro/internal/dist"
	"repro/internal/sim"
	"repro/internal/simtime"
	"repro/internal/trace"
	"repro/internal/workloads"
)

func main() {
	workflow := flag.String("workflow", "pagerank-l", "catalogued run key (see wire-workflows)")
	seed := flag.Int64("seed", 1, "generation/interference seed")
	flag.Parse()
	const width = 100

	run, ok := workloads.ByKey(*workflow)
	if !ok {
		fmt.Fprintf(os.Stderr, "wire-trace: unknown workflow %q; known keys: %v\n", *workflow, workloads.Keys())
		os.Exit(1)
	}
	wf := run.Generate(*seed)

	rec := trace.NewRecorder()
	cfg := sim.Config{
		Cloud: cloud.Config{
			SlotsPerInstance: 4,
			LagTime:          3 * simtime.Minute,
			ChargingUnit:     15 * simtime.Minute,
			MaxInstances:     12,
		},
		Seed:         *seed,
		Interference: dist.NewLognormalFromMean(1, 0.05),
		Observer:     rec.Hook(),
	}
	res, err := sim.Run(wf, core.New(core.Config{}), cfg)
	if err != nil {
		fmt.Fprintln(os.Stderr, "wire-trace:", err)
		os.Exit(1)
	}

	fmt.Printf("%s under %s — makespan %s, %d charging units, utilization %.1f%%, %d restarts\n\n",
		res.Workflow, res.Policy, simtime.FormatDuration(res.Makespan),
		res.UnitsCharged, res.Utilization*100, res.Restarts)
	fmt.Print(trace.Gantt(res, width))
	fmt.Printf("\npool |%s| peak %d\n", trace.PoolSparkline(res, width), res.PeakPool)
	counts := rec.CountByKind()
	fmt.Printf("\nevents: %d starts, %d completions, %d kills, %d launches, %d terminations, %d decisions\n",
		counts[sim.EvTaskStart], counts[sim.EvTaskComplete], counts[sim.EvTaskKilled],
		counts[sim.EvInstanceLaunch], counts[sim.EvInstanceTerminated], counts[sim.EvDecision])
}
