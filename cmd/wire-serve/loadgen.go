package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"strings"
	"time"

	"repro/internal/cloud"
	"repro/internal/report"
	"repro/internal/scenario"
	"repro/internal/service"
	"repro/internal/tenancy"
	"repro/internal/workloads"
)

type loadgenFlags struct {
	*flag.FlagSet
	server, workflow, arrivals, streamKeys, traceIn               *string
	sessions, concurrency, tenants, tenantBudget, tenantMaxActive *int
	seed                                                          *int64
	retry, retain                                                 *bool
	arrivalRate, compress                                         *float64
}

func newLoadgenFlags() *loadgenFlags {
	fs := newFlagSet("loadgen")
	return &loadgenFlags{
		FlagSet:         fs,
		server:          fs.String("server", "http://127.0.0.1:8080", "daemon or router base URL"),
		sessions:        fs.Int("sessions", 100, "number of workflows to run"),
		concurrency:     fs.Int("concurrency", 0, "simultaneously running sessions (0 = all)"),
		workflow:        fs.String("workflow", "genome-s", "catalogued run key: "+strings.Join(workloads.Keys(), ", ")),
		seed:            fs.Int64("seed", 1, "seed base; session i uses seed+i"),
		retry:           fs.Bool("retry", false, "retrying shared client (required to ride out a live failover)"),
		retain:          fs.Bool("retain", false, "skip the session DELETE on completion so journals survive for wire-serve audit"),
		arrivals:        fs.String("arrivals", "", "arrival-stream mode: "+strings.Join(tenancy.Processes(), " | ")+" (sessions arrive over time instead of all at once)"),
		tenants:         fs.Int("tenants", 3, "tenant streams in arrival mode"),
		arrivalRate:     fs.Float64("arrival-rate", 24, "per-tenant arrivals per simulated hour"),
		tenantBudget:    fs.Int("tenant-budget", 0, "per-tenant budget in charging units (0 = unlimited)"),
		tenantMaxActive: fs.Int("tenant-max-active", 0, "per-tenant concurrent-session cap (0 = unlimited)"),
		streamKeys:      fs.String("stream-keys", "", "comma-separated workflow keys drawn per arrival (default: -workflow)"),
		compress:        fs.Float64("compress", 3600, "time compression for arrival dispatch (simulated seconds per wall second)"),
		traceIn:         fs.String("trace-in", "", "replay an arrival-stream CSV (internal/tenancy/testdata/stream_poisson_s42.csv is one) instead of generating one"),
	}
}

// runLoadgen is the front end of the scenario runner (internal/scenario):
// it drives concurrent simulated workflows against the daemon or router at
// -server, planning every MAPE iteration over HTTP, re-runs each session
// in-process, and fails unless every decision stream is identical.
func runLoadgen(args []string) error {
	f := newLoadgenFlags()
	if err := parseFlags(f.FlagSet, args, false); err != nil {
		return err
	}
	if *f.retain && (*f.tenantBudget > 0 || *f.tenantMaxActive > 0) {
		return fmt.Errorf("-retain never releases tenant slots; drop -tenant-budget/-tenant-max-active")
	}
	var opts []service.ClientOption
	if *f.retry {
		opts = append(opts, service.WithRetry(service.DefaultChaosRetry()))
	}
	cfg := scenario.Config{
		Client:      service.NewClient(*f.server, opts...),
		Sessions:    *f.sessions,
		Concurrency: *f.concurrency,
		WorkflowKey: *f.workflow,
		// The paper's site: 4 slots per instance, a 3-minute instantiation
		// lag (= MAPE interval), a 15-minute charging unit, 12 instances at
		// most, and lognormal occupancy noise of sigma 0.08.
		Cloud: cloud.Config{
			SlotsPerInstance: 4,
			LagTime:          180,
			ChargingUnit:     900,
			MaxInstances:     12,
		},
		Noise:              0.08,
		SeedBase:           *f.seed,
		Verify:             true,
		RetainSessions:     *f.retain,
		Arrivals:           *f.arrivals,
		Tenants:            *f.tenants,
		ArrivalRatePerHour: *f.arrivalRate,
		TenantBudget:       *f.tenantBudget,
		TenantMaxActive:    *f.tenantMaxActive,
		TimeCompression:    *f.compress,
		Progress:           progress,
		Logf:               stderrf,
	}
	streamMode := *f.arrivals != "" || *f.traceIn != ""
	if streamMode {
		for _, k := range strings.Split(*f.streamKeys, ",") {
			if k = strings.TrimSpace(k); k != "" {
				cfg.StreamKeys = append(cfg.StreamKeys, k)
			}
		}
		if *f.traceIn != "" {
			file, err := os.Open(*f.traceIn)
			if err != nil {
				return err
			}
			s, err := tenancy.ReadStreamCSV(file)
			file.Close()
			if err != nil {
				return fmt.Errorf("reading %s: %w", *f.traceIn, err)
			}
			cfg.Stream = s
		}
	}
	res, err := scenario.Run(context.Background(), cfg)
	if err != nil {
		return err
	}

	load := fmt.Sprintf("%d×%s", res.Sessions, *f.workflow)
	if streamMode {
		keys := strings.Join(cfg.StreamKeys, ",")
		if cfg.Stream != nil {
			keys = "trace"
		}
		load = fmt.Sprintf("%d arrivals (%s) over %d tenants", res.Sessions, keys, res.Tenants)
	}
	t := &report.Table{
		Title:   fmt.Sprintf("Loadgen — %s under wire via %s", load, *f.server),
		Headers: []string{"metric", "value"},
	}
	t.AddRow("sessions completed", fmt.Sprintf("%d/%d", res.Completed, res.Sessions))
	t.AddRow("sessions failed", res.Failed)
	t.AddRow("remote/local mismatches", res.Mismatched)
	t.AddRow("plan requests", res.Plans)
	t.AddRow("wall time", res.Wall.Round(time.Millisecond))
	t.AddRow("plan throughput", report.F(res.PlansPerSec, 1)+" req/s")
	t.AddRow("plan latency p50", report.F(res.Latency.P50, 2)+" ms")
	t.AddRow("plan latency p90", report.F(res.Latency.P90, 2)+" ms")
	t.AddRow("plan latency p99", report.F(res.Latency.P99, 2)+" ms")
	t.AddRow("plan latency max", report.F(res.Latency.Max, 2)+" ms")
	if res.Retries > 0 {
		t.AddRow("client retries", res.Retries)
	}
	if res.DegradedPlans > 0 {
		t.AddRow("degraded plans", res.DegradedPlans)
	}
	if streamMode {
		t.AddRow("tenants", res.Tenants)
		t.AddRow("throttled creates", res.Throttled)
		t.AddRow("deadline misses", res.DeadlineMisses)
		t.AddRow("tenant spend", report.F(res.TenantSpendUnits, 1)+" units")
	}
	if err := t.Render(os.Stdout); err != nil {
		return err
	}
	for _, e := range res.Errors {
		fmt.Fprintln(os.Stderr, "wire-serve loadgen:", e)
	}
	return res.Verdict()
}

// progress reports finished sessions on one rewritten stderr line.
func progress(done, total int) {
	if done%10 == 0 || done == total {
		fmt.Fprintf(os.Stderr, "\rwire-serve loadgen: %d/%d sessions", done, total)
		if done == total {
			fmt.Fprintln(os.Stderr)
		}
	}
}
