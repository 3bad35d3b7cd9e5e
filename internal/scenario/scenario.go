// Package scenario is the repository's one scenario runner, a test harness
// that only tests import: it drives a fleet of simulated workflow sessions
// against wire-serve — an external daemon, or an in-process fleet it hosts
// and injects faults into — re-runs every session against an in-process twin,
// and states the verdict. It is the harness behind every certificate, each a
// test here: `go test -race ./internal/scenario -run '^TestX$'` for
// TestChaosCertifyKillRestart, TestShardCertifyKill,
// TestShardCertifyRollingRestart, TestShardCertifyChurn and
// TestShardCertifyPartition. cmd/wire-serve's TestProcesses drives real
// wire-serve processes through it as an external router. Nothing in the
// serving packages or the binaries depends on it.
//
// Four things live here and nowhere else:
//
//   - the session runner (session.go): one dispatch loop over a list of
//     arrivals and one runSession. A fixed fleet of N sessions is the arrival
//     stream whose arrivals all land at t = 0;
//   - the fleet host (fleet.go): restartable in-process daemons on private
//     journal directories, behind a router when there is more than one. The
//     chaos certificate's single daemon is the fleet of one, which recovers
//     from a kill by restarting in place because no router can fail it over;
//   - the fault drivers (drivers.go): progress-triggered kill, rolling
//     restart, seeded churn, partition nemesis;
//   - the verdict (Result.Verdict): what a run must show to pass.
package scenario

import (
	"context"
	"fmt"
	"os"
	"time"

	"repro/internal/audit"
	"repro/internal/chaos"
	"repro/internal/cloud"
	"repro/internal/cluster"
	"repro/internal/dag"
	"repro/internal/service"
	"repro/internal/tenancy"
)

// PartitionSpec is a nemesis spec: an explicit sequence of partition kinds, or
// a count of events whose kinds are drawn from the seed.
type PartitionSpec struct {
	// Kinds is the explicit event sequence, one event per kind in order; nil
	// when the kinds are drawn from the seed.
	Kinds []chaos.PartitionKind
	// Events is the seeded event count; ignored when Kinds is set.
	Events int
}

// Config describes one scenario: the sessions to run, what to run them
// against, and the faults to inject meanwhile.
type Config struct {
	// Client addresses an external daemon or router. Required when Shards is
	// zero, ignored otherwise.
	Client *service.Client
	// Sessions is the number of workflows to run (default 100); in stream
	// mode, the length of the generated stream.
	Sessions int
	// Concurrency bounds simultaneously running sessions (default: all).
	Concurrency int

	// Policy is every session's controller (default "wire").
	Policy string

	// WorkflowKey picks a Table I catalogue run; Workflow overrides it with
	// an arbitrary per-seed generator. One of the two is required outside
	// stream mode.
	WorkflowKey string
	Workflow    func(seed int64) *dag.Workflow

	// Cloud is the simulated site every session runs on. Required.
	Cloud cloud.Config
	// Noise, when positive, applies lognormal interference with this sigma
	// to each task attempt.
	Noise float64
	// SeedBase offsets per-session seeds: session i uses SeedBase+i, so every
	// session drives a distinct workflow instance and decision stream —
	// cross-session contamination cannot cancel out. In stream mode it seeds
	// the arrival generator.
	SeedBase int64

	// Chaos, when non-nil and active, injects the plan's faults: each session
	// gets a private fault-injecting client (network faults, stream = session
	// seed, DefaultChaosRetry) and a private cloud-fault injector for its
	// simulated site. Fixed-fleet mode only.
	Chaos *chaos.Plan

	// Verify re-runs every session in-process with an identical fresh
	// controller and requires the decision streams byte-identical: any lost,
	// duplicated, degraded, or mis-routed plan interval changes the stream
	// and is caught here — under fault injection this is the exactly-once
	// certificate.
	Verify bool

	// RetainSessions skips the DELETE at session end, leaving every WAL on
	// disk for a post-run audit. Do not combine with TenantBudget or
	// TenantMaxActive: retained sessions hold their tenant slots forever, so
	// admission starves and the stream hangs.
	RetainSessions bool

	// Arrivals, when set to an arrival-process name (poisson, burst,
	// diurnal), switches to stream mode: sessions are submitted by a
	// multi-tenant arrival stream (internal/tenancy) at time-compressed
	// instants instead of all at once, each tagged with its tenant and
	// deadline, so the daemon sees overlapping lifetimes, per-tenant
	// admission pressure, and budget throttling.
	Arrivals string
	// Stream replays an explicit arrival stream instead of generating one;
	// it implies stream mode.
	Stream *tenancy.Stream
	// Tenants is the number of tenant streams (default 3).
	Tenants int
	// ArrivalRatePerHour is each tenant's mean arrival rate (default 24).
	ArrivalRatePerHour float64
	// TenantBudget, when positive, registers every tenant with this budget
	// in charging units — creates beyond it are throttled and retried.
	TenantBudget int
	// TenantMaxActive, when positive, caps each tenant's concurrently active
	// sessions.
	TenantMaxActive int
	// StreamKeys bounds the per-arrival workflow draw (default: WorkflowKey
	// when set, else the full catalog).
	StreamKeys []string
	// TimeCompression divides simulated inter-arrival gaps to get wall
	// sleeps (default 3600: one simulated hour per wall second).
	TimeCompression float64

	// Progress, when set, is called after each finished session.
	Progress func(done, total int)

	// Shards, when positive, hosts the system under test in-process instead
	// of addressing Client: that many daemons on private journal directories
	// under a temp root, behind a router when there is more than one, with
	// sessions sharing a DefaultChaosRetry client. Every fault below needs a
	// hosted fleet; all but the kill need the router.
	Shards int
	// Server configures each hosted daemon; ShardMode and JournalDir are set
	// per daemon.
	Server service.Config
	// Seed feeds the kill, churn, and partition schedules.
	Seed int64

	// KillAfterPlans SIGKILLs one seeded victim once it hosts a session and
	// has served this many plans plus a seeded jitter of up to as many again:
	// its listener and every open connection die abruptly, no drain.
	// Progress, not a timer, so the kill lands mid-run however fast planning
	// is. Behind a router the victim's sessions fail over to a peer; a lone
	// daemon restarts in place from its journal. Zero skips the kill.
	KillAfterPlans int
	// RollingRestart drains, restarts, and rejoins every shard in sequence
	// while the sessions run. The run ends only after the full cycle.
	RollingRestart bool
	// ChurnEvents, when positive, applies a seeded random schedule of
	// kill/drain/join events (chaos.Plan.ChurnSchedule) during the run, then
	// heals the fleet. Exercises the nasty interleavings: kill-during-drain,
	// join-during-failover.
	ChurnEvents int
	// Partition, when non-nil, runs the partition nemesis: a seeded schedule
	// of link faults (symmetric splits, one-way router→shard drops, slow
	// links) realized by a chaos.Network that the router, every shard's
	// relay-probe client, and the session client thread through. Each event
	// heals before the next; sessions are retained and the merged journals
	// audited after the run. Incompatible with TenantBudget/TenantMaxActive,
	// as RetainSessions is.
	Partition *PartitionSpec

	// Logf receives harness and router log lines.
	Logf func(format string, args ...any)

	// observe, when set, sees every session's remote decision stream.
	observe func(arr arrival, decisions [][]byte)
}

// Result is a scenario's outcome: the session tally, and for a hosted fleet
// what the faults did and the router's counters at the end of the run.
type Result struct {
	Sessions   int
	Completed  int
	Failed     int
	Mismatched int

	Plans     int64
	Decisions int64
	// Latency summarizes client-observed plan round trips.
	Latency service.LatencySummary

	// Retries counts HTTP retry attempts across all sessions.
	Retries int64
	// NetFaults and CloudFaults aggregate the injected faults (chaos mode).
	NetFaults   chaos.Counts
	CloudFaults chaos.CloudCounts

	// Tenants is the number of tenant streams (stream mode).
	Tenants int
	// Throttled counts tenant_throttled create refusals the runner observed
	// and retried; every one was eventually admitted (a throttled session
	// that never got in is counted in Failed instead).
	Throttled int64
	// TenantSpendUnits sums the daemon's per-tenant ledger after the run
	// (stream mode).
	TenantSpendUnits float64

	// Errors holds the first few failure messages.
	Errors []string

	// Killed reports whether the mid-run kill actually happened (the run may
	// finish first); Victim is the killed daemon's name.
	Killed bool
	Victim string
	// JournalReplays is how many sessions the hosted daemons rebuilt from
	// write-ahead logs.
	JournalReplays int64
	// Router is the hosted router's counters at the end of the run (zero
	// without a router).
	Router cluster.RouterCounters
	// Restarted lists the shards the rolling-restart cycle completed, in
	// order.
	Restarted []string
	// ChurnApplied counts churn events that were actually applied.
	ChurnApplied int
	// PartitionsApplied counts nemesis events that ran to their heal.
	PartitionsApplied int
	// Audit is the post-run journal consistency report (partition runs).
	Audit *audit.Report

	cfg *Config // what Verdict holds the run to
}

// Run executes the scenario and returns its outcome. The error is a scenario
// that could not run — invalid configuration, a fleet that would not boot, a
// fault driver that could not complete its schedule; what the sessions and
// the system under test did is in the Result, and whether that passes is
// Result.Verdict. Cancelling ctx aborts the run: sessions in flight or not yet
// dispatched are counted failed.
func Run(ctx context.Context, cfg Config) (*Result, error) {
	if cfg.Sessions <= 0 {
		cfg.Sessions = 100
	}
	if cfg.Concurrency <= 0 {
		cfg.Concurrency = cfg.Sessions
	}
	if cfg.Policy == "" {
		cfg.Policy = "wire"
	}
	if cfg.Tenants <= 0 {
		cfg.Tenants = 3
	}
	if cfg.ArrivalRatePerHour <= 0 {
		cfg.ArrivalRatePerHour = 24
	}
	if cfg.TimeCompression <= 0 {
		cfg.TimeCompression = 3600
	}
	logf := cfg.Logf
	if logf == nil {
		logf = func(string, ...any) {}
	}

	faults := 0
	for _, on := range []bool{cfg.KillAfterPlans > 0, cfg.RollingRestart, cfg.ChurnEvents > 0, cfg.Partition != nil} {
		if on {
			faults++
		}
	}
	switch {
	case cfg.Shards <= 0 && cfg.Client == nil:
		return nil, fmt.Errorf("scenario: Client is required without a hosted fleet")
	case faults > 1:
		return nil, fmt.Errorf("scenario: kill, rolling restart, churn, and partition are separate certificates; pick one")
	case faults > 0 && cfg.Shards <= 0:
		return nil, fmt.Errorf("scenario: fault injection needs a hosted fleet (Shards > 0)")
	case faults > 0 && cfg.Shards == 1 && cfg.KillAfterPlans == 0:
		return nil, fmt.Errorf("scenario: rolling restart, churn, and partition need a router (Shards > 1)")
	}
	if cfg.Partition != nil {
		if cfg.TenantBudget > 0 || cfg.TenantMaxActive > 0 {
			return nil, fmt.Errorf("scenario: the partition nemesis retains sessions for the post-run audit, which never releases tenant slots; it cannot run with tenant budgets or active caps")
		}
		// Sessions must outlive the run so their WALs survive to be audited.
		cfg.RetainSessions = true
	}
	if err := cfg.Cloud.Validate(); err != nil {
		return nil, fmt.Errorf("scenario: %w", err)
	}
	if cfg.Chaos != nil {
		if err := cfg.Chaos.Validate(); err != nil {
			return nil, fmt.Errorf("scenario: %w", err)
		}
	}
	// Validate the policy spec once up front, not N times concurrently.
	if _, err := service.NewPolicyController(cfg.Policy, nil); err != nil {
		return nil, fmt.Errorf("scenario: %w", err)
	}
	arrs, err := cfg.arrivals()
	if err != nil {
		return nil, err
	}

	res := &Result{cfg: &cfg}
	if cfg.Shards <= 0 {
		if err := runSessions(ctx, &cfg, cfg.Client, arrs, res); err != nil {
			return nil, err
		}
		return res, nil
	}

	root, err := os.MkdirTemp("", "wire-scenario-*")
	if err != nil {
		return nil, fmt.Errorf("scenario: %w", err)
	}
	defer os.RemoveAll(root)
	ctx, cancel := context.WithCancel(ctx)
	defer cancel()
	f, err := hostFleet(ctx, &cfg, root, logf)
	if err != nil {
		return nil, fmt.Errorf("scenario: hosting the fleet: %w", err)
	}
	defer f.close()

	sessionsDone := make(chan struct{})
	var runErr error
	go func() {
		defer close(sessionsDone)
		runErr = runSessions(ctx, &cfg, f.client(), arrs, res)
	}()
	faultErr := cfg.runFaults(ctx, f, res, sessionsDone, logf)
	if faultErr != nil {
		cancel() // the scenario is void; do not wait out the sessions' retries
	}
	<-sessionsDone
	if faultErr != nil {
		return nil, fmt.Errorf("scenario: fault driver: %w", faultErr)
	}
	if runErr != nil {
		return nil, runErr
	}

	var dirs []string
	for _, d := range f.daemons {
		srv := d.server()
		res.JournalReplays += srv.Metrics().Dump(time.Now(), srv.Store().Len()).FaultTolerance.JournalReplaysTotal
		dirs = append(dirs, d.jdir)
	}
	if f.rt != nil {
		res.Router = f.rt.Counters()
	}
	// Partition runs retained every session's WAL; audit the merged journals
	// before the temp root goes. The report — not an error — carries any
	// violations: Verdict decides.
	if cfg.Partition != nil {
		if res.Audit, err = audit.Run(audit.Config{Dirs: dirs}); err != nil {
			return nil, fmt.Errorf("scenario: post-run audit: %w", err)
		}
	}
	return res, nil
}

// Verdict is the one statement of what a run must show to pass; nil means it
// passed. Every scenario must complete every session with none failed or
// diverged from its twin. Beyond that each injected fault must have happened
// and been recovered from: a kill ⇒ the victim died and a failover took its
// sessions (or, with no router, at least one journal replay); a rolling
// restart ⇒ every shard rolled and the fleet back at full strength; churn ⇒
// the fleet healed; the partition nemesis ⇒ every event applied, the fleet
// healed, and the journal audit ran and is clean.
func (r *Result) Verdict() error {
	if r.Failed > 0 || r.Mismatched > 0 {
		return fmt.Errorf("%d failed, %d mismatched of %d sessions", r.Failed, r.Mismatched, r.Sessions)
	}
	if r.Completed != r.Sessions {
		return fmt.Errorf("only %d of %d sessions completed", r.Completed, r.Sessions)
	}
	cfg := r.cfg
	n := cfg.Shards
	if cfg.KillAfterPlans > 0 {
		switch {
		case !r.Killed:
			return fmt.Errorf("kill certificate inconclusive: the run finished before the kill (raise Sessions or lower KillAfterPlans)")
		case n > 1 && r.Router.FailoversTotal == 0:
			return fmt.Errorf("cluster certificate failed: shard %s was killed but no failover happened", r.Victim)
		case n == 1 && r.JournalReplays == 0:
			return fmt.Errorf("chaos certificate failed: the daemon was killed but restarted without replaying any journal")
		}
	}
	if cfg.RollingRestart {
		if len(r.Restarted) != n || r.Router.DrainsTotal < int64(n) || r.Router.JoinsTotal < int64(n) {
			return fmt.Errorf("rolling-restart certificate failed: %d/%d shards rolled (%d drains, %d joins)",
				len(r.Restarted), n, r.Router.DrainsTotal, r.Router.JoinsTotal)
		}
		if r.Router.ShardsUp != n {
			return fmt.Errorf("rolling-restart certificate failed: only %d/%d shards up at end", r.Router.ShardsUp, n)
		}
	}
	if cfg.ChurnEvents > 0 && r.Router.ShardsUp != n {
		return fmt.Errorf("churn certificate failed: only %d/%d shards up after healing", r.Router.ShardsUp, n)
	}
	if cfg.Partition != nil {
		if want := partitionEvents(cfg.Partition); r.PartitionsApplied != want {
			return fmt.Errorf("partition certificate inconclusive: %d of %d nemesis events applied", r.PartitionsApplied, want)
		}
		if r.Router.ShardsUp != n {
			return fmt.Errorf("partition certificate failed: only %d/%d shards up after healing", r.Router.ShardsUp, n)
		}
		if r.Audit == nil {
			return fmt.Errorf("partition certificate failed: no journal audit ran")
		}
		if !r.Audit.Clean() {
			return fmt.Errorf("partition certificate failed: journal audit found %d violation(s): %+v", len(r.Audit.Violations), r.Audit.Violations)
		}
	}
	return nil
}
