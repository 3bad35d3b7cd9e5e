// Command wire-agent is a live execution worker: it registers with a
// wire-serve daemon, advertises task slots, long-polls for leased tasks, and
// runs each lease through the busy/sleep task emulator, reporting measured
// execution and transfer times back to the dispatcher.
//
//	wire-serve serve -addr 127.0.0.1:8080 &
//	curl -s -X POST http://127.0.0.1:8080/v1/live/runs -d '{"workflow_key":"genome-s", ...}'
//	wire-agent -server http://127.0.0.1:8080 -run live-<id> -slots 4
//
// The agent injects no faults; the dispatcher's reclaim, quarantine and
// speculation paths are certified by internal/exec tests that drive agents
// in-process, and cmd/wire-serve's TestProcesses SIGKILLs a real agent
// process (LiveAgentKill) and a real daemon (LiveServerKill) mid-run.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"syscall"

	"repro/internal/exec"
)

func main() {
	fs := flag.NewFlagSet("wire-agent", flag.ExitOnError)
	server := fs.String("server", "http://127.0.0.1:8080", "wire-serve base URL")
	run := fs.String("run", "", "live run ID to serve (required)")
	name := fs.String("name", "", "agent display name (default: hostname-pid)")
	slots := fs.Int("slots", 4, "concurrent task slots to advertise")
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

	acfg := exec.AgentConfig{
		BaseURL: *server,
		RunID:   *run,
		Name:    *name,
		Slots:   *slots,
		Logf:    logf,
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
