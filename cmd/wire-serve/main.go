// Command wire-serve hosts WIRE controllers as a long-running HTTP daemon
// and ships the matching load-test client.
//
// Serve mode (the default) runs the controller-as-a-service daemon:
//
//	wire-serve -addr 127.0.0.1:8080 -max-sessions 1024 -ttl 30m
//	wire-serve serve -addr 127.0.0.1:0     # ephemeral port, printed on stdout
//
// Loadgen mode is the front end of the scenario runner (internal/scenario):
// flags in, one scenario.Run, a report table and the runner's verdict out.
// It drives N concurrent simulated workflows against a running daemon,
// planning every MAPE iteration over HTTP, and reports throughput, latency
// quantiles, and remote-vs-local verification:
//
//	wire-serve loadgen -server http://127.0.0.1:8080 -sessions 100 -workflow genome-s
//
// Arrival-stream mode replaces the fixed fleet with a multi-tenant arrival
// process (internal/tenancy): tenant-tagged sessions arrive over compressed
// time, heterogeneous workflows are drawn per arrival, and the daemon's
// admission gate throttles tenants against their budgets and session caps.
// A CSV trace (wire-workflows -stream) replays through the same path:
//
//	wire-serve loadgen -arrivals poisson -sessions 51 -tenants 3 \
//	  -stream-keys tpch6-s,tpch1-s,pagerank-s -tenant-budget 30
//	wire-serve loadgen -trace-in stream.csv
//	wire-serve loadgen -shards 3 -kill-shard -arrivals poisson -sessions 24
//
// Chaos mode runs the fault-tolerance certificate: it hosts a daemon
// in-process, drives the sessions through deterministically injected network
// and cloud faults, optionally kills and restarts the daemon mid-run
// (recovering every session from its write-ahead journal), and requires each
// decision stream byte-identical to a fault-free in-process twin:
//
//	wire-serve loadgen -chaos -sessions 12 -concurrency 2 -kill-after 20
//
// Route mode runs the sharded control plane's stateless front end: it
// consistent-hashes session IDs onto a static fleet of shard daemons
// (ordinary `wire-serve serve -shard` processes), heartbeats them, and on
// shard death hands the dead shard's journal directories to a surviving peer
// which resurrects every session by WAL replay:
//
//	wire-serve serve -shard -journal /mnt/journals/s0 -addr 127.0.0.1:8081
//	wire-serve serve -shard -journal /mnt/journals/s1 -addr 127.0.0.1:8082
//	wire-serve route -addr 127.0.0.1:8080 \
//	  -shard s0=http://127.0.0.1:8081=/mnt/journals/s0 \
//	  -shard s1=http://127.0.0.1:8082=/mnt/journals/s1
//
// The cluster certificate (`loadgen -shards N -kill-shard`) hosts the whole
// fleet in-process, SIGKILLs one shard mid-run, and requires zero dropped
// sessions with every decision stream byte-identical to an in-process twin:
//
//	wire-serve loadgen -shards 3 -kill-shard -sessions 30 -concurrency 4
//
// The elastic variants drain, restart, and rejoin every shard in sequence
// (the rolling-restart certificate) or apply a seeded random schedule of
// kill/drain/join churn events, with the same zero-drop bar:
//
//	wire-serve loadgen -shards 3 -rolling-restart -sessions 30 -concurrency 4
//	wire-serve loadgen -shards 3 -churn 8 -sessions 30 -concurrency 4
//
// The partition certificate replaces process kills with a seeded network
// nemesis: symmetric splits, one-way router→shard drops, and slow links are
// applied and healed in sequence under live load, after which the post-run
// journal audit must come back clean:
//
//	wire-serve loadgen -shards 3 -partition split,oneway,slow -sessions 60
//	wire-serve loadgen -shards 3 -partition seeded:4 -sessions 60
//
// Audit mode replays a set of journal directories (the union of every
// shard's -journal dir, gathered after a run or an incident) and checks
// machine-verifiable global invariants: exactly-once decisions, at most one
// unfenced writer per session, monotone seq/epoch, no lost or double-billed
// planning intervals, lease grant/terminal identity, and per-tenant spend
// within budget. It prints a JSON report and exits non-zero on violations:
//
//	wire-serve audit -journal /mnt/journals/s0 -journal /mnt/journals/s1
//	wire-serve audit -selftest    # mutation self-test of the auditor itself
//
// Admin mode drives the router's elastic membership endpoints from the
// command line:
//
//	wire-serve admin -router http://127.0.0.1:8080 -drain s1
//	wire-serve admin -router http://127.0.0.1:8080 -join s1=http://127.0.0.1:8082=/mnt/journals/s1
//
// The daemon exits cleanly on SIGINT/SIGTERM after draining in-flight
// requests. A shard started with -name and -router additionally drains
// itself out of the ring on SIGTERM (migrating its sessions to live peers)
// before shutting down.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"net"
	"net/http"
	"os"
	"os/signal"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"

	"repro/internal/audit"
	"repro/internal/chaos"
	"repro/internal/cloud"
	"repro/internal/cluster"
	"repro/internal/report"
	"repro/internal/scenario"
	"repro/internal/service"
	"repro/internal/tenancy"
)

func main() {
	args := os.Args[1:]
	mode := "serve"
	if len(args) > 0 && (args[0] == "serve" || args[0] == "loadgen" || args[0] == "route" || args[0] == "admin" || args[0] == "audit") {
		mode, args = args[0], args[1:]
	}
	var err error
	switch mode {
	case "serve":
		err = runServe(args)
	case "loadgen":
		err = runLoadgen(args)
	case "route":
		err = runRoute(args)
	case "admin":
		err = runAdmin(args)
	case "audit":
		err = runAudit(args)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "wire-serve:", err)
		os.Exit(1)
	}
}

func runServe(args []string) error {
	fs := flag.NewFlagSet("wire-serve serve", flag.ExitOnError)
	addr := fs.String("addr", "127.0.0.1:8080", "listen address (port 0 = ephemeral)")
	maxSessions := fs.Int("max-sessions", 1024, "concurrent session cap (-1 = unbounded)")
	ttl := fs.Duration("ttl", 30*time.Minute, "idle session TTL (-1 = never evict)")
	janitor := fs.Duration("janitor", time.Minute, "eviction sweep interval")
	grace := fs.Duration("grace", 10*time.Second, "shutdown drain bound for HTTP requests")
	drainTimeout := fs.Duration("drain-timeout", 30*time.Second, "shutdown drain bound for in-flight agent leases")
	journal := fs.String("journal", "", "crash-recovery journal directory (empty = journaling off)")
	fsyncMode := fs.String("journal-fsync", service.FsyncPerInterval, "journal durability, session WALs and live-run journals alike: record (fsync every append) | interval (at most once per -journal-fsync-interval) | off")
	fsyncInterval := fs.Duration("journal-fsync-interval", 100*time.Millisecond, "sync period for -journal-fsync interval")
	liveRuns := fs.Int("live-max-runs", 8, "concurrent live execution runs (-1 = live plane off)")
	shardMode := fs.Bool("shard", false, "session-shard mode: honor router-assigned session IDs and serve the /v1/admin handoff endpoints")
	selfName := fs.String("name", "", "this shard's name on the router's ring (enables SIGTERM self-drain with -router)")
	routerURL := fs.String("router", "", "router base URL; with -name, SIGTERM drains this shard out of the ring before shutdown")
	partAfter := fs.Duration("chaos-partition-after", 0, "partition nemesis: this long after startup, start dropping router-tagged requests (0 = off)")
	partFor := fs.Duration("chaos-partition-for", 3*time.Second, "partition nemesis: how long the one-way drop window lasts")
	quiet := fs.Bool("quiet", false, "suppress operational log lines")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *shardMode && *journal == "" {
		return fmt.Errorf("serve -shard requires -journal (the journal directory is the unit of failover handoff)")
	}
	if (*selfName == "") != (*routerURL == "") {
		return fmt.Errorf("serve -name and -router go together (both identify this shard to the router for SIGTERM self-drain)")
	}
	switch *fsyncMode {
	case service.FsyncRecord, service.FsyncPerInterval, service.FsyncOff:
	default:
		return fmt.Errorf("serve -journal-fsync wants record, interval, or off (got %q)", *fsyncMode)
	}

	logf := func(format string, fargs ...any) {
		fmt.Fprintf(os.Stderr, format+"\n", fargs...)
	}
	if *quiet {
		logf = func(string, ...any) {}
	}
	scfg := service.Config{
		MaxSessions:     *maxSessions,
		IdleTTL:         *ttl,
		JanitorInterval: *janitor,
		ShutdownGrace:   *grace,
		DrainTimeout:    *drainTimeout,
		JournalDir:      *journal,
		FsyncMode:       *fsyncMode,
		FsyncInterval:   *fsyncInterval,
		LiveMaxRuns:     *liveRuns,
		ShardMode:       *shardMode,
		Logf:            logf,
	}
	if *partAfter > 0 {
		// One-way link cut, realized in-process: during the window, any
		// request tagged with the router's identity header is dropped with a
		// connection reset (no HTTP response), exactly what a severed
		// router→shard link looks like from the router's side. Untagged
		// traffic — including the peer-relayed confirmation probes — still
		// lands, so the router can prove this shard alive-but-partitioned.
		scfg.Middleware = func(next http.Handler) http.Handler {
			start := time.Now()
			var once sync.Once
			return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
				if r.Header.Get(service.RouterIdentityHeader) != "" {
					if el := time.Since(start); el >= *partAfter && el < *partAfter+*partFor {
						once.Do(func() {
							logf("wire-serve: chaos: dropping router-tagged requests for %v", *partFor)
						})
						panic(http.ErrAbortHandler)
					}
				}
				next.ServeHTTP(w, r)
			})
		}
	}
	srv := service.New(scfg)

	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		return err
	}
	// The bound address goes to stdout so scripts (and the CI smoke test)
	// can start on port 0 and discover the URL.
	fmt.Printf("wire-serve: listening on http://%s\n", ln.Addr())

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	sigc := make(chan os.Signal, 1)
	signal.Notify(sigc, os.Interrupt, syscall.SIGTERM)
	go func() {
		<-sigc
		signal.Stop(sigc) // a second signal kills outright
		// Self-drain BEFORE tearing the server down: the drain migrates this
		// shard's sessions to live peers, and this shard must keep serving
		// (it is the export donor) until the router says the drain is done.
		if *selfName != "" {
			logf("wire-serve: SIGTERM: draining shard %s out of the ring via %s", *selfName, *routerURL)
			dctx, dcancel := context.WithTimeout(context.Background(), 2*time.Minute)
			if body, err := cluster.Drain(dctx, *routerURL, *selfName); err != nil {
				logf("wire-serve: self-drain failed (shutting down anyway; the router will fail this shard over): %v", err)
			} else {
				logf("wire-serve: self-drain complete: %s", body)
			}
			dcancel()
		}
		cancel()
	}()
	if err := srv.Serve(ctx, ln); err != nil {
		return err
	}
	logf("wire-serve: shutdown complete")
	return nil
}

// runAdmin drives the router's elastic membership endpoints: -drain moves a
// shard's sessions to its peers and removes it from the ring; -join adds (or
// re-adds after a restart) a shard, migrating the minimally-remapped key
// ranges onto it. Both block until the operation commits.
func runAdmin(args []string) error {
	fs := flag.NewFlagSet("wire-serve admin", flag.ExitOnError)
	router := fs.String("router", "http://127.0.0.1:8080", "router base URL")
	drain := fs.String("drain", "", "gracefully drain this shard out of the ring")
	join := fs.String("join", "", "join a shard as name=url=journal-dir")
	timeout := fs.Duration("timeout", 2*time.Minute, "operation timeout")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if (*drain == "") == (*join == "") {
		return fmt.Errorf("admin wants exactly one of -drain or -join")
	}
	ctx, cancel := context.WithTimeout(context.Background(), *timeout)
	defer cancel()
	if *drain != "" {
		body, err := cluster.Drain(ctx, *router, *drain)
		if err != nil {
			return fmt.Errorf("drain %s: %w", *drain, err)
		}
		fmt.Printf("wire-serve admin: drained: %s\n", body)
		return nil
	}
	sh, err := cluster.ParseShard(*join)
	if err != nil {
		return err
	}
	body, err := cluster.Join(ctx, *router, sh)
	if err != nil {
		return fmt.Errorf("join %s: %w", sh.Name, err)
	}
	fmt.Printf("wire-serve admin: joined: %s\n", body)
	return nil
}

// runAudit merges a set of journal directories and checks the global
// consistency invariants (internal/audit), printing the JSON report to
// stdout. Exit status is the verdict: non-zero when any violation is found,
// so `wire-serve audit ... || alert` is the whole integration. With
// -selftest it instead runs the auditor's own mutation-coverage check.
func runAudit(args []string) error {
	fs := flag.NewFlagSet("wire-serve audit", flag.ExitOnError)
	var dirs stringList
	fs.Var(&dirs, "journal", "journal directory to audit (repeatable; positional args are accepted too)")
	var budgetFlags stringList
	fs.Var(&budgetFlags, "budget", "per-tenant budget as tenant=units (repeatable; enables the budget_overspend check)")
	slack := fs.Float64("slack", 0, "charging units of slack before budget_overspend fires (austerity admission may legitimately run slightly over)")
	selftest := fs.Bool("selftest", false, "run the auditor's mutation self-test (seeded corruptions must all be caught) instead of auditing journals")
	if err := fs.Parse(args); err != nil {
		return err
	}
	enc := json.NewEncoder(os.Stdout)
	enc.SetIndent("", "  ")
	if *selftest {
		res, err := audit.SelfTest()
		if err != nil {
			return err
		}
		if err := enc.Encode(res); err != nil {
			return err
		}
		if !res.Ok() {
			return fmt.Errorf("audit selftest: missed %d of %d seeded corruption(s)", len(res.Missed), res.Cases)
		}
		fmt.Fprintf(os.Stderr, "wire-serve audit: selftest caught %d/%d seeded corruptions\n", res.Caught, res.Cases)
		return nil
	}
	dirs = append(dirs, fs.Args()...)
	if len(dirs) == 0 {
		return fmt.Errorf("audit wants at least one -journal directory (or -selftest)")
	}
	budgets := map[string]float64{}
	for _, b := range budgetFlags {
		tenant, units, ok := strings.Cut(b, "=")
		if !ok {
			return fmt.Errorf("audit -budget wants tenant=units (got %q)", b)
		}
		u, err := strconv.ParseFloat(units, 64)
		if err != nil {
			return fmt.Errorf("audit -budget %s: %w", b, err)
		}
		budgets[tenant] = u
	}
	rep, err := audit.Run(audit.Config{Dirs: dirs, TenantBudgets: budgets, SlackUnits: *slack})
	if err != nil {
		return err
	}
	if err := enc.Encode(rep); err != nil {
		return err
	}
	if !rep.Clean() {
		return fmt.Errorf("audit: %d violation(s) across %d session(s)", len(rep.Violations), rep.Sessions)
	}
	fmt.Fprintf(os.Stderr, "wire-serve audit: clean — %d session(s), %d WAL(s), %d plan(s), %d live record(s)\n",
		rep.Sessions, rep.WALs, rep.Plans, rep.LiveRecords)
	return nil
}

// stringList is a repeatable string flag (-shard a -shard b).
type stringList []string

func (s *stringList) String() string { return strings.Join(*s, ",") }
func (s *stringList) Set(v string) error {
	*s = append(*s, v)
	return nil
}

func runRoute(args []string) error {
	fs := flag.NewFlagSet("wire-serve route", flag.ExitOnError)
	addr := fs.String("addr", "127.0.0.1:8080", "listen address (port 0 = ephemeral)")
	var shardFlags stringList
	fs.Var(&shardFlags, "shard", "shard as name=url=journal-dir (repeatable)")
	shardMap := fs.String("shard-map", "", "JSON shard-map file (alternative to -shard)")
	vnodes := fs.Int("vnodes", cluster.DefaultVNodes, "virtual nodes per shard on the placement ring")
	heartbeat := fs.Duration("heartbeat", time.Second, "shard liveness probe interval")
	heartbeatTimeout := fs.Duration("heartbeat-timeout", 0, "single probe timeout (0 = the interval)")
	failAfter := fs.Int("fail-after", 3, "consecutive probe misses before a shard is declared dead")
	retryAfter := fs.Duration("retry-after", time.Second, "Retry-After hint on 503 shard_recovering responses")
	quiet := fs.Bool("quiet", false, "suppress operational log lines")
	if err := fs.Parse(args); err != nil {
		return err
	}

	var shards []cluster.Shard
	if *shardMap != "" {
		var err error
		if shards, err = cluster.LoadShardMap(*shardMap); err != nil {
			return err
		}
	}
	for _, s := range shardFlags {
		sh, err := cluster.ParseShard(s)
		if err != nil {
			return err
		}
		shards = append(shards, sh)
	}

	logf := func(format string, fargs ...any) {
		fmt.Fprintf(os.Stderr, format+"\n", fargs...)
	}
	if *quiet {
		logf = func(string, ...any) {}
	}
	rt, err := cluster.NewRouter(cluster.RouterConfig{
		Shards:            shards,
		VNodes:            *vnodes,
		HeartbeatInterval: *heartbeat,
		HeartbeatTimeout:  *heartbeatTimeout,
		FailThreshold:     *failAfter,
		RetryAfter:        *retryAfter,
		Logf:              logf,
	})
	if err != nil {
		return err
	}

	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		return err
	}
	// The bound address goes to stdout so scripts (and the CI smoke test)
	// can start on port 0 and discover the URL.
	fmt.Printf("wire-serve: routing on http://%s\n", ln.Addr())
	logf("wire-serve route: %d shard(s), 10k-key spread %v", len(shards), rt.Ring().Spread(10000))

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	go rt.Run(ctx)
	hs := &http.Server{Handler: rt.Handler(), ReadHeaderTimeout: 10 * time.Second}
	errc := make(chan error, 1)
	go func() { errc <- hs.Serve(ln) }()
	select {
	case err := <-errc:
		return err
	case <-ctx.Done():
	}
	sctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	_ = hs.Shutdown(sctx)
	logf("wire-serve route: shutdown complete")
	return nil
}

func runLoadgen(args []string) error {
	fs := flag.NewFlagSet("wire-serve loadgen", flag.ExitOnError)
	server := fs.String("server", "http://127.0.0.1:8080", "daemon base URL")
	sessions := fs.Int("sessions", 100, "number of workflows to run")
	concurrency := fs.Int("concurrency", 0, "simultaneously running sessions (0 = all)")
	workflow := fs.String("workflow", "genome-s", "catalogued run key (see wire-workflows)")
	policy := fs.String("policy", "wire", "wire | deadline | full-site | pure-reactive | reactive-conserving")
	deadline := fs.Duration("deadline", 0, "completion target for -policy deadline")
	unit := fs.Duration("unit", 15*time.Minute, "charging unit")
	lag := fs.Duration("lag", 3*time.Minute, "instantiation lag = MAPE interval")
	slots := fs.Int("slots", 4, "task slots per worker instance")
	maxInst := fs.Int("max-instances", 12, "site instance cap")
	noise := fs.Float64("noise", 0.08, "lognormal sigma of per-attempt occupancy noise (0 = none)")
	seed := fs.Int64("seed", 1, "seed base; session i uses seed+i")
	verify := fs.Bool("verify", true, "re-run each session in-process and require identical results")
	chaosMode := fs.Bool("chaos", false, "chaos certificate: in-process daemon + injected faults (ignores -server)")
	chaosSeed := fs.Int64("chaos-seed", 1, "fault-schedule seed (chaos and cluster modes)")
	killAfter := fs.Int("kill-after", 0, "kill the daemon (chaos mode: and journal-restart it) or the -kill-shard victim once it has served this many plans, plus a seeded jitter (0 = chaos mode: no kill; -kill-shard: 10)")
	shardCount := fs.Int("shards", 0, "cluster certificate: host this many in-process shards behind a router (ignores -server)")
	killShard := fs.Bool("kill-shard", false, "cluster certificate: SIGKILL one shard mid-run and require journal-handoff failover")
	rolling := fs.Bool("rolling-restart", false, "cluster certificate: drain, restart, and rejoin every shard in sequence under live traffic")
	churn := fs.Int("churn", 0, "cluster certificate: apply this many seeded kill/drain/join churn events, then heal the fleet")
	partition := fs.String("partition", "", "partition certificate: nemesis spec, a kind list (split,oneway,slow) or seeded:N")
	withRetry := fs.Bool("retry", false, "retrying shared client (required to ride out a live failover)")
	retain := fs.Bool("retain", false, "skip the session DELETE on completion so journals survive for wire-serve audit")
	arrivalsProc := fs.String("arrivals", "", "arrival-stream mode: "+strings.Join(tenancy.Processes(), " | ")+" (sessions arrive over time instead of all at once)")
	tenants := fs.Int("tenants", 3, "tenant streams in arrival mode")
	arrivalRate := fs.Float64("arrival-rate", 24, "per-tenant arrivals per simulated hour")
	tenantBudget := fs.Int("tenant-budget", 0, "per-tenant budget in charging units (0 = unlimited)")
	tenantMaxActive := fs.Int("tenant-max-active", 0, "per-tenant concurrent-session cap (0 = unlimited)")
	streamKeys := fs.String("stream-keys", "", "comma-separated workflow keys drawn per arrival (default: -workflow)")
	compress := fs.Float64("compress", 3600, "time compression for arrival dispatch (simulated seconds per wall second)")
	traceIn := fs.String("trace-in", "", "replay an arrival-stream CSV (see wire-workflows -stream) instead of generating one")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *chaosMode && *shardCount > 1 {
		return fmt.Errorf("-chaos and -shards are separate certificates; pick one")
	}
	streamMode := *arrivalsProc != "" || *traceIn != ""
	if streamMode && *chaosMode {
		return fmt.Errorf("arrival-stream mode does not compose with -chaos; drop one")
	}
	if (*rolling || *churn > 0) && *shardCount <= 1 {
		return fmt.Errorf("-rolling-restart and -churn need -shards N (the fleet to churn)")
	}
	if *rolling && *churn > 0 {
		return fmt.Errorf("-rolling-restart and -churn are separate certificates; pick one")
	}
	if *retain && (*tenantBudget > 0 || *tenantMaxActive > 0) {
		return fmt.Errorf("-retain never releases tenant slots; drop -tenant-budget/-tenant-max-active")
	}
	var partSpec *chaos.PartitionSpec
	if *partition != "" {
		if *shardCount <= 1 {
			return fmt.Errorf("-partition needs -shards N (the fleet to partition)")
		}
		if *killShard || *rolling || *churn > 0 {
			return fmt.Errorf("-partition is its own certificate; drop -kill-shard/-rolling-restart/-churn")
		}
		var err error
		if partSpec, err = chaos.ParsePartitionSpec(*partition); err != nil {
			return err
		}
	}

	logf := func(format string, fargs ...any) {
		fmt.Fprintf(os.Stderr, format+"\n", fargs...)
	}
	cfg := scenario.Config{
		Sessions:    *sessions,
		Concurrency: *concurrency,
		Policy:      *policy,
		WorkflowKey: *workflow,
		Cloud: cloud.Config{
			SlotsPerInstance: *slots,
			LagTime:          lag.Seconds(),
			ChargingUnit:     unit.Seconds(),
			MaxInstances:     *maxInst,
		},
		Noise:              *noise,
		SeedBase:           *seed,
		Verify:             *verify,
		RetainSessions:     *retain,
		Arrivals:           *arrivalsProc,
		Tenants:            *tenants,
		ArrivalRatePerHour: *arrivalRate,
		TenantBudget:       *tenantBudget,
		TenantMaxActive:    *tenantMaxActive,
		TimeCompression:    *compress,
		Progress: func(done, total int) {
			if done%10 == 0 || done == total {
				fmt.Fprintf(os.Stderr, "\rwire-serve loadgen: %d/%d sessions", done, total)
				if done == total {
					fmt.Fprintln(os.Stderr)
				}
			}
		},
		Server:         service.Config{Logf: logf},
		Seed:           *chaosSeed,
		RollingRestart: *rolling,
		ChurnEvents:    *churn,
		Partition:      partSpec,
		Logf:           logf,
	}
	if *deadline > 0 {
		cfg.Controller = &service.ControllerSpec{Deadline: deadline.Seconds()}
	}
	if streamMode {
		for _, k := range strings.Split(*streamKeys, ",") {
			if k = strings.TrimSpace(k); k != "" {
				cfg.StreamKeys = append(cfg.StreamKeys, k)
			}
		}
		if *traceIn != "" {
			f, err := os.Open(*traceIn)
			if err != nil {
				return err
			}
			s, err := tenancy.ReadStreamCSV(f)
			f.Close()
			if err != nil {
				return fmt.Errorf("reading %s: %w", *traceIn, err)
			}
			cfg.Stream = s
		}
	}

	via := *server
	clustered := *shardCount > 1
	switch {
	case clustered:
		// The cluster certificate hosts the shard fleet and router itself and
		// verifies every session against an in-process twin.
		cfg.Shards, cfg.Verify = *shardCount, true
		if *killShard {
			cfg.KillAfterPlans = 10
			if *killAfter > 0 {
				cfg.KillAfterPlans = *killAfter
			}
		}
		via = fmt.Sprintf("in-process %d-shard cluster", *shardCount)
	case *chaosMode:
		// The certificate hosts its own daemon, injects the default fault
		// plan into every session, and verifies against fault-free twins.
		cfg.Shards, cfg.Verify = 1, true
		cfg.Chaos = defaultChaosPlan(*chaosSeed, *lag)
		cfg.KillAfterPlans = *killAfter
		via = "in-process chaos daemon"
	default:
		var opts []service.ClientOption
		if *withRetry {
			opts = append(opts, service.WithRetry(service.DefaultChaosRetry()))
		}
		cfg.Client = service.NewClient(*server, opts...)
	}
	res, err := scenario.Run(context.Background(), cfg)
	if err != nil {
		return err
	}

	load := fmt.Sprintf("%d×%s", res.Sessions, *workflow)
	if streamMode {
		keys := strings.Join(cfg.StreamKeys, ",")
		if cfg.Stream != nil {
			keys = "trace"
		}
		load = fmt.Sprintf("%d arrivals (%s) over %d tenants", res.Sessions, keys, res.Tenants)
	}
	t := &report.Table{
		Title:   fmt.Sprintf("Loadgen — %s under %s via %s", load, *policy, via),
		Headers: []string{"metric", "value"},
	}
	t.AddRow("sessions completed", fmt.Sprintf("%d/%d", res.Completed, res.Sessions))
	t.AddRow("sessions failed", res.Failed)
	if cfg.Verify {
		t.AddRow("remote/local mismatches", res.Mismatched)
	}
	t.AddRow("plan requests", res.Plans)
	t.AddRow("wall time", res.Wall.Round(time.Millisecond))
	t.AddRow("plan throughput", report.F(res.PlansPerSec, 1)+" req/s")
	t.AddRow("plan latency p50", report.F(res.Latency.P50, 2)+" ms")
	t.AddRow("plan latency p90", report.F(res.Latency.P90, 2)+" ms")
	t.AddRow("plan latency p99", report.F(res.Latency.P99, 2)+" ms")
	t.AddRow("plan latency max", report.F(res.Latency.Max, 2)+" ms")
	if res.Retries > 0 || *chaosMode {
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
	if *chaosMode {
		n := res.NetFaults
		t.AddRow("net faults injected", fmt.Sprintf("%d of %d attempts (%d drops, %d 5xx, %d resets, %d delays)",
			n.Total(), n.Attempts, n.DroppedRequests, n.Injected5xx, n.DroppedResponses, n.Delayed))
		c := res.CloudFaults
		t.AddRow("cloud faults injected", fmt.Sprintf("%d of %d orders (%d lost, %d dup, %d doa, %d stragglers)",
			c.Lost+c.Duplicated+c.DOA, c.Orders, c.Lost, c.Duplicated, c.DOA, c.Stragglers))
		t.AddRow("daemon killed mid-run", res.Killed)
		t.AddRow("journal replays", res.JournalReplays)
	}
	if clustered {
		if res.Killed {
			t.AddRow("shard killed mid-run", res.Victim)
		} else {
			t.AddRow("shard killed mid-run", false)
		}
		t.AddRow("failovers", res.Router.FailoversTotal)
		t.AddRow("sessions handed off", res.Router.HandoffSessionsTotal)
		t.AddRow("shards up at end", res.Router.ShardsUp)
		t.AddRow("503s during recovery", res.Router.Recovering503Total)
		if *rolling || *churn > 0 {
			t.AddRow("drains", res.Router.DrainsTotal)
			t.AddRow("joins", res.Router.JoinsTotal)
			t.AddRow("sessions migrated", res.Router.MigratedSessionsTotal)
		}
		if *rolling {
			t.AddRow("shards rolled", strings.Join(res.Restarted, ", "))
		}
		if *churn > 0 {
			t.AddRow("churn events applied", res.ChurnApplied)
		}
		if partSpec != nil {
			t.AddRow("partitions applied", res.PartitionsApplied)
			t.AddRow("partitions suspected", res.Router.PartitionsSuspectedTotal)
			t.AddRow("partitions healed", res.Router.PartitionsHealedTotal)
			t.AddRow("503s while partitioned", res.Router.Partitioned503Total)
			if res.Audit != nil {
				t.AddRow("journal audit", fmt.Sprintf("%d session(s), %d WAL(s), %d violation(s)",
					res.Audit.Sessions, res.Audit.WALs, len(res.Audit.Violations)))
			}
		}
	}
	if err := t.Render(os.Stdout); err != nil {
		return err
	}
	for _, e := range res.Errors {
		fmt.Fprintln(os.Stderr, "wire-serve loadgen:", e)
	}
	if err := res.Verdict(); err != nil {
		return err
	}
	switch {
	case partSpec != nil:
		fmt.Println("partition certificate PASSED: zero dropped sessions, fleet healed, journal audit clean")
	case clustered:
		fmt.Println("cluster certificate PASSED: zero dropped sessions, decision streams byte-identical to in-process twins")
	case *chaosMode:
		fmt.Println("chaos certificate PASSED: decision streams byte-identical to fault-free twins")
	}
	return nil
}

// defaultChaosPlan is the fault mix `loadgen -chaos` injects: every fault
// class active, aggressive enough that a typical run exercises each one.
func defaultChaosPlan(seed int64, lag time.Duration) *chaos.Plan {
	return &chaos.Plan{
		Seed:              seed,
		DropRequest:       0.05,
		Err5xx:            0.05,
		DropResponse:      0.05,
		DelayProb:         0.20,
		MaxDelay:          20 * time.Millisecond,
		LostOrder:         0.05,
		DuplicateOrder:    0.05,
		DeadOnArrival:     0.05,
		StragglerProb:     0.10,
		MaxStragglerDelay: lag.Seconds(),
	}
}
