// Command wire-sim executes one catalogued workflow under WIRE on the
// simulated cloud site (4 slots per instance, 15-minute charging unit,
// 3-minute instantiation lag, at most 12 instances, seed 1) and prints the
// run report, the pool timeline, a per-instance slot-occupancy Gantt chart
// and a pool-size sparkline.
//
// Usage:
//
//	wire-sim -workflow genome-s
//	wire-sim -workflow genome-s -mtbf 10m
//	wire-sim -workflow genome-s -server http://127.0.0.1:8080
//
// With -server, planning is delegated to a running wire-serve daemon: the
// simulator executes locally but every MAPE iteration becomes a POST to
// /v1/sessions/{id}/plan, exercising the same client code as the scenario
// runner that the certificates drive.
// The session is deleted when the run ends, whether or not it succeeded.
package main

import (
	"context"
	"flag"
	"fmt"
	"io"
	"os"
	"strings"
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
	"repro/internal/trace"
	"repro/internal/workloads"
)

// chartWidth is the column count of the Gantt chart and the sparkline.
const chartWidth = 100

func main() {
	workflow := flag.String("workflow", "genome-s", "catalogued run key: "+strings.Join(workloads.Keys(), ", "))
	server := flag.String("server", "", "wire-serve base URL; delegates planning to the daemon")
	mtbf := flag.Duration("mtbf", 0, "mean time between instance failures (0 = no failures)")
	flag.Parse()
	if err := run(os.Stdout, *workflow, *server, *mtbf); err != nil {
		fmt.Fprintln(os.Stderr, "wire-sim:", err)
		os.Exit(1)
	}
}

// run simulates the catalogued workflow key, planning through the daemon at
// server when it is set, and writes the report to out.
func run(out io.Writer, key, server string, mtbf time.Duration) (err error) {
	const seed = 1
	entry, ok := workloads.ByKey(key)
	if !ok {
		return fmt.Errorf("unknown workflow %q; known keys: %v", key, workloads.Keys())
	}
	wf := entry.Generate(seed)
	var ctrl sim.Controller = core.New(core.Config{})
	var remote *service.RemoteController
	if server != "" {
		remote, err = service.NewRemoteController(context.Background(), service.NewClient(server), service.CreateSessionRequest{
			Workflow: dagio.Encode(wf),
			Policy:   "wire",
		})
		if err != nil {
			return err
		}
		defer func() {
			if cerr := remote.Close(); cerr != nil && err == nil {
				err = fmt.Errorf("delete session: %w", cerr)
			}
		}()
		ctrl = remote
	}
	rec := trace.NewRecorder()
	cfg := sim.Config{
		Cloud: cloud.Config{
			SlotsPerInstance: 4,
			LagTime:          3 * simtime.Minute,
			ChargingUnit:     15 * simtime.Minute,
			MaxInstances:     12,
		},
		Seed:         seed,
		MTBF:         mtbf.Seconds(),
		Interference: dist.NewLognormalFromMean(1, 0.08),
		Observer:     rec.Hook(),
	}
	res, err := sim.Run(wf, ctrl, cfg)
	if err != nil {
		return err
	}
	if remote != nil && remote.Err() != nil {
		return fmt.Errorf("remote planning: %w", remote.Err())
	}
	return printResult(out, wf, res, rec)
}

func printResult(out io.Writer, wf *dag.Workflow, res *sim.Result, rec *trace.Recorder) error {
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
	if err := t.Render(out); err != nil {
		return err
	}

	fmt.Fprintln(out)
	pool := &report.Table{Title: "Pool timeline (changes only)", Headers: []string{"t", "held", "usable"}}
	for _, s := range res.Pool {
		pool.AddRow(simtime.FormatDuration(s.Time), s.Held, s.Usable)
	}
	if err := pool.Render(out); err != nil {
		return err
	}

	fmt.Fprintf(out, "\n%s", trace.Gantt(res, chartWidth))
	fmt.Fprintf(out, "\npool |%s| peak %d\n", trace.PoolSparkline(res, chartWidth), res.PeakPool)
	counts := rec.CountByKind()
	_, err := fmt.Fprintf(out, "\nevents: %d starts, %d completions, %d kills, %d launches, %d terminations, %d decisions\n",
		counts[sim.EvTaskStart], counts[sim.EvTaskComplete], counts[sim.EvTaskKilled],
		counts[sim.EvInstanceLaunch], counts[sim.EvInstanceTerminated], counts[sim.EvDecision])
	return err
}
