// Live run: close the MAPE loop outside the simulator. The program drives a
// live execution run of an Epigenomics-class workflow at high timescale
// through worker agents: each agent leases tasks, emulates them on the wall
// clock, and reports measured execution and transfer times, so the WIRE
// controller plans from genuine monitoring snapshots assembled out of agent
// telemetry.
//
// After the workflow completes, the program fetches the recorded
// snapshot→decision stream and replays it through a fresh in-process
// controller (TwinVerify): the live decision stream must be byte-identical to
// the simulator twin's — the live-vs-sim parity certificate — and the lease
// counters must show zero lost leases.
//
//	go run ./examples/live-run
//
// The daemon is hosted in-process unless -server names a running one, and
// the agents are goroutines running the loop cmd/wire-agent runs. The same
// run through real wire-serve and wire-agent processes, with an agent or the
// daemon SIGKILLed mid-run, is cmd/wire-serve's TestProcesses.
package main

import (
	"context"
	"flag"
	"fmt"
	"log"
	"net"
	"sync"
	"time"

	"repro/wire"
)

func main() {
	server := flag.String("server", "", "external wire-serve base URL (default: host the daemon in-process)")
	agentN := flag.Int("agents", 2, "number of worker agents")
	slots := flag.Int("slots", 4, "task slots per agent and per instance")
	workflow := flag.String("workflow", "genome-s", "catalogued run key")
	policy := flag.String("policy", "wire", "controller policy")
	timescale := flag.Float64("timescale", 100, "simulated seconds per wall second")
	timeout := flag.Duration("timeout", 5*time.Minute, "overall run deadline")
	flag.Parse()

	ctx, cancel := context.WithTimeout(context.Background(), *timeout)
	defer cancel()

	// 1. A daemon to talk to: external (-server), or hosted in-process on an
	//    ephemeral port, as `wire-serve serve -addr 127.0.0.1:0` would.
	base := *server
	if base == "" {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			log.Fatal(err)
		}
		srv := wire.NewServiceServer(wire.ServiceConfig{Logf: func(string, ...any) {}})
		go func() {
			if err := srv.Serve(ctx, ln); err != nil {
				log.Fatal(err)
			}
		}()
		base = "http://" + ln.Addr().String()
		fmt.Printf("wire-serve daemon up at %s\n", base)
	}
	client := wire.NewLiveClient(base)

	// 2. Create the live run under the paper's site parameters (§IV-B):
	//    instances host a few task slots, ~3 min instantiation lag, 15 min
	//    charging unit.
	info, err := client.CreateRun(ctx, &wire.LiveRunRequest{
		WorkflowKey:      *workflow,
		Policy:           *policy,
		SlotsPerInstance: *slots,
		LagTimeS:         180,
		ChargingUnitS:    900,
		MaxInstances:     12,
		Timescale:        *timescale,
	})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("created %s: %s (%d tasks / %d stages) under %s at %g× timescale\n",
		info.ID, info.Workflow, info.Tasks, info.Stages, info.Policy, info.Timescale)

	// 3. The workers: goroutines running the wire-agent loop.
	var agents sync.WaitGroup
	for i := 1; i <= *agentN; i++ {
		name := fmt.Sprintf("worker-%d", i)
		agents.Add(1)
		go func() {
			defer agents.Done()
			err := wire.RunLiveAgent(ctx, wire.LiveAgentConfig{
				BaseURL: base, RunID: info.ID, Name: name, Slots: *slots,
			})
			if err != nil && ctx.Err() == nil {
				log.Fatalf("agent %s: %v", name, err)
			}
		}()
	}

	// 4. Start the run clock and wait for the workflow to finish.
	if _, err := client.StartRun(ctx, info.ID); err != nil {
		log.Fatal(err)
	}
	var st wire.LiveRunStatus
	for {
		if st, err = client.RunStatus(ctx, info.ID); err != nil {
			log.Fatal(err)
		}
		if st.State.String() == "done" || st.State.String() == "failed" {
			break
		}
		time.Sleep(250 * time.Millisecond)
	}
	agents.Wait()
	if st.Result == nil {
		log.Fatalf("run %s: %s", st.State, st.Error)
	}
	res := st.Result

	fmt.Printf("\nlive run complete in %v wall\n", time.Duration(res.WallElapsedMs)*time.Millisecond)
	fmt.Printf("  makespan      %.1f simulated min\n", res.MakespanS/60)
	fmt.Printf("  units charged %d (%.0f instance-seconds)\n", res.UnitsCharged, res.ChargedSeconds)
	fmt.Printf("  utilization   %.1f%%   peak pool %d   launches %d   restarts %d   failures %d\n",
		res.Utilization*100, res.PeakPool, res.Launches, res.Restarts, res.Failures)
	fmt.Printf("  decisions     %d   leases granted %d / completed %d / reclaimed %d / superseded %d / lost %d\n",
		res.Decisions, res.Counters.LeasesGranted, res.Counters.LeasesCompleted,
		res.Counters.LeasesReclaimed, res.Counters.LeasesSuperseded, res.Counters.LeasesLost)
	if res.Counters.LeasesLost != 0 {
		log.Fatalf("FAILED: %d leases lost", res.Counters.LeasesLost)
	}
	if got := res.Counters.LeasesGranted - res.Counters.LeasesCompleted -
		res.Counters.LeasesReclaimed - res.Counters.LeasesSuperseded; got != 0 {
		log.Fatalf("FAILED: lease identity violated by %d", got)
	}

	// 5. Parity certificate: replay the recorded snapshots through a fresh
	//    controller and require a byte-identical decision stream.
	records, err := client.PlanStream(ctx, info.ID)
	if err != nil {
		log.Fatal(err)
	}
	twin, err := wire.NewPolicyController(*policy, nil)
	if err != nil {
		log.Fatal(err)
	}
	if err := wire.TwinVerify(records, twin); err != nil {
		log.Fatalf("FAILED: %v", err)
	}
	fmt.Printf("\nparity certificate PASSED: %d live decisions byte-identical to the simulator twin\n",
		len(records))
}
