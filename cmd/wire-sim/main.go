// Command wire-sim executes one catalogued workflow under WIRE on the
// simulated cloud site (15-minute charging unit, 3-minute instantiation lag,
// at most 12 instances) and prints the run report.
//
// Usage:
//
//	wire-sim -workflow genome-s -slots 4 -seed 7
//	wire-sim -workflow genome-s -mtbf 10m
//	wire-sim -workflow genome-s -server http://127.0.0.1:8080
//
// With -server, planning is delegated to a running wire-serve daemon: the
// simulator executes locally but every MAPE iteration becomes a POST to
// /v1/sessions/{id}/plan, exercising the same client code as the loadgen.
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"time"

	"repro/internal/cloud"
	"repro/internal/core"
	"repro/internal/dag"
	"repro/internal/dagio"
	"repro/internal/dist"
	"repro/internal/report"
	"repro/internal/service"
	"repro/internal/sim"
	"repro/internal/simtime"
	"repro/internal/workloads"
)

func main() {
	workflow := flag.String("workflow", "genome-s", "catalogued run key (see wire-workflows)")
	server := flag.String("server", "", "wire-serve base URL; delegates planning to the daemon")
	slots := flag.Int("slots", 4, "task slots per worker instance")
	seed := flag.Int64("seed", 1, "generation/interference seed")
	mtbf := flag.Duration("mtbf", 0, "mean time between instance failures (0 = no failures)")
	flag.Parse()

	run, ok := workloads.ByKey(*workflow)
	if !ok {
		fail(fmt.Errorf("unknown workflow %q; known keys: %v", *workflow, workloads.Keys()))
	}
	wf := run.Generate(*seed)
	var ctrl sim.Controller
	if *server != "" {
		rc, err := service.NewRemoteController(context.Background(), service.NewClient(*server), service.CreateSessionRequest{
			Workflow: dagio.Encode(wf),
			Policy:   "wire",
		})
		if err != nil {
			fail(err)
		}
		defer rc.Close()
		ctrl = rc
		defer func() {
			if err := rc.Err(); err != nil {
				fail(fmt.Errorf("remote planning: %w", err))
			}
		}()
	} else {
		ctrl = core.New(core.Config{})
	}
	cfg := sim.Config{
		Cloud: cloud.Config{
			SlotsPerInstance: *slots,
			LagTime:          3 * simtime.Minute,
			ChargingUnit:     15 * simtime.Minute,
			MaxInstances:     12,
		},
		Seed:         *seed,
		MTBF:         mtbf.Seconds(),
		Interference: dist.NewLognormalFromMean(1, 0.08),
	}

	res, err := sim.Run(wf, ctrl, cfg)
	if err != nil {
		fail(err)
	}
	printResult(wf, res)
}

func printResult(wf *dag.Workflow, res *sim.Result) {
	t := &report.Table{Title: fmt.Sprintf("Run report — %s under %s", res.Workflow, res.Policy),
		Headers: []string{"metric", "value"}}
	t.AddRow("tasks", len(res.TaskRuns))
	t.AddRow("stages", wf.NumStages())
	t.AddRow("makespan", simtime.FormatDuration(res.Makespan))
	t.AddRow("charging units", res.UnitsCharged)
	t.AddRow("charged time", simtime.FormatDuration(res.ChargedSeconds))
	t.AddRow("utilization", report.F(res.Utilization*100, 1)+"%")
	t.AddRow("peak pool", res.PeakPool)
	t.AddRow("launches", res.Launches)
	t.AddRow("task restarts", res.Restarts)
	t.AddRow("instance failures", res.Failures)
	if res.OrdersLost+res.OrdersDuplicated+res.DeadOnArrival > 0 {
		t.AddRow("orders lost", res.OrdersLost)
		t.AddRow("orders duplicated", res.OrdersDuplicated)
		t.AddRow("dead on arrival", res.DeadOnArrival)
	}
	t.AddRow("MAPE iterations", res.Decisions)
	t.AddRow("controller wall", res.ControllerWall.Round(time.Microsecond))
	if err := t.Render(os.Stdout); err != nil {
		fail(err)
	}

	fmt.Println()
	pool := &report.Table{Title: "Pool timeline (changes only)", Headers: []string{"t", "held", "usable"}}
	for _, s := range res.Pool {
		pool.AddRow(simtime.FormatDuration(s.Time), s.Held, s.Usable)
	}
	if err := pool.Render(os.Stdout); err != nil {
		fail(err)
	}
}

func fail(err error) {
	fmt.Fprintln(os.Stderr, "wire-sim:", err)
	os.Exit(1)
}
