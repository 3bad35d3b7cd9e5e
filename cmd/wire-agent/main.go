// Command wire-agent is a live execution worker: it registers with a
// wire-serve daemon, advertises task slots, long-polls for leased tasks, and
// runs each lease through the busy/sleep task emulator, reporting measured
// execution and transfer times back to the dispatcher.
//
//	wire-serve serve -addr 127.0.0.1:8080 &
//	curl -s -X POST http://127.0.0.1:8080/v1/live/runs -d '{"workflow_key":"genome-s", ...}'
//	wire-agent -server http://127.0.0.1:8080 -run live-<id> -slots 4
//
// Chaos flags make the agent an unreliable worker for reclaim testing:
// -chaos-drop injects random request drops into its transport,
// -partition-after severs it from the dispatcher entirely after a wall-clock
// delay — from the dispatcher's point of view the agent crashes, its
// heartbeat lapses, and its leased tasks are reclaimed and re-executed
// elsewhere — -chaos-task-crash makes leased attempts die mid-execution
// (poison-task/quarantine testing), and -chaos-slow turns the agent into a
// deterministic straggler (speculative re-execution testing). Every chaos
// draw comes from fault-schedule seed 1, stream 0.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"net/http"
	"os"
	"os/signal"
	"sync"
	"syscall"
	"time"

	"repro/internal/chaos"
	"repro/internal/exec"
)

func main() {
	fs := flag.NewFlagSet("wire-agent", flag.ExitOnError)
	server := fs.String("server", "http://127.0.0.1:8080", "wire-serve base URL")
	run := fs.String("run", "", "live run ID to serve (required)")
	name := fs.String("name", "", "agent display name (default: hostname-pid)")
	slots := fs.Int("slots", 4, "concurrent task slots to advertise")
	chaosDrop := fs.Float64("chaos-drop", 0, "probability of dropping each request (unreliable-agent mode)")
	chaosTaskCrash := fs.Float64("chaos-task-crash", 0, "probability each (task, attempt) crashes mid-execution (poison-task mode)")
	chaosSlow := fs.Float64("chaos-slow", 0, "probability this agent is a straggler, stretching every task")
	chaosSlowFactor := fs.Float64("chaos-slow-factor", 8, "duration multiplier applied when -chaos-slow selects this agent")
	partitionAfter := fs.Duration("partition-after", 0, "sever the agent from the dispatcher after this wall delay (0 = never)")
	if err := fs.Parse(os.Args[1:]); err != nil {
		os.Exit(2)
	}
	if *run == "" {
		fmt.Fprintln(os.Stderr, "wire-agent: -run is required")
		os.Exit(2)
	}
	logf := func(format string, args ...any) {
		fmt.Fprintf(os.Stderr, "wire-agent: "+format+"\n", args...)
	}
	if *name == "" {
		host, _ := os.Hostname()
		*name = fmt.Sprintf("%s-%d", host, os.Getpid())
	}

	plan := chaos.Plan{
		Seed:        1,
		DropRequest: *chaosDrop,
		TaskCrash:   *chaosTaskCrash,
		SlowAgent:   *chaosSlow,
		SlowFactor:  *chaosSlowFactor,
	}
	if err := plan.Validate(); err != nil {
		fmt.Fprintln(os.Stderr, "wire-agent:", err)
		os.Exit(2)
	}
	var transport http.RoundTripper = http.DefaultTransport
	if *chaosDrop > 0 {
		transport = plan.Transport(0, transport)
	}
	pt := &partitionTransport{next: transport}
	if *partitionAfter > 0 {
		time.AfterFunc(*partitionAfter, func() {
			logf("partitioned from dispatcher (after %v)", *partitionAfter)
			pt.sever()
		})
	}

	acfg := exec.AgentConfig{
		BaseURL:    *server,
		RunID:      *run,
		Name:       *name,
		Slots:      *slots,
		HTTPClient: &http.Client{Transport: pt},
		Logf:       logf,
		JitterSeed: plan.Seed,
	}
	if *chaosTaskCrash > 0 {
		acfg.CrashTask = plan.TaskCrashes
	}
	if stretch := plan.AgentSlowdown(0); stretch > 1 {
		logf("chaos: straggler mode, stretching tasks %.1fx", stretch)
		acfg.Stretch = stretch
	}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	err := exec.RunAgent(ctx, acfg)
	if err != nil && ctx.Err() == nil {
		var rerr *exec.RegisterError
		if errors.As(err, &rerr) {
			// Terminal rejection: the dispatcher will never admit this
			// agent, so retrying (or restarting) is pointless. Exit with a
			// distinct status and point the operator at the daemon metrics.
			fmt.Fprintf(os.Stderr, "wire-agent: registration rejected: %v\n", rerr)
			fmt.Fprintf(os.Stderr, "wire-agent: check run state and limits: GET %s/metrics\n", *server)
			os.Exit(3)
		}
		fmt.Fprintln(os.Stderr, "wire-agent:", err)
		os.Exit(1)
	}
}

// partitionTransport drops every request once severed: the process lives on
// but the dispatcher never hears from it again.
type partitionTransport struct {
	next http.RoundTripper

	mu      sync.Mutex
	severed bool
}

func (p *partitionTransport) sever() {
	p.mu.Lock()
	p.severed = true
	p.mu.Unlock()
}

func (p *partitionTransport) RoundTrip(req *http.Request) (*http.Response, error) {
	p.mu.Lock()
	severed := p.severed
	p.mu.Unlock()
	if severed {
		return nil, fmt.Errorf("wire-agent: network partitioned")
	}
	return p.next.RoundTrip(req)
}
