package cluster

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/audit"
	"repro/internal/chaos"
	"repro/internal/service"
)

// ShardCertConfig drives ShardCertify: the cluster certificate run behind
// `wire-serve loadgen -shards N -kill-shard` and its elastic variants
// `-rolling-restart` and `-churn N`.
type ShardCertConfig struct {
	// Loadgen configures the sessions. Client is filled in by the harness
	// (a retrying client pointed at the router); Verify should be set — the
	// certificate is the twin comparison.
	Loadgen service.LoadgenConfig
	// Server is the per-shard daemon config; ShardMode and JournalDir are
	// overridden per shard.
	Server service.Config
	// Shards is the fleet size (default 3).
	Shards int
	// JournalRoot holds one journal directory per shard (default: a fresh
	// temp dir, removed afterwards).
	JournalRoot string

	// KillAfterPlans SIGKILLs one shard once it hosts a session and has
	// served this many plans plus a seeded jitter of up to as many again: its
	// listener and every open connection die abruptly, no drain. Progress,
	// not a timer, so the kill lands mid-run however fast planning is. Zero
	// skips the kill.
	KillAfterPlans int
	// Seed feeds the chaos plan's shard-kill and churn schedules.
	Seed int64

	// RollingRestart drains, restarts, and rejoins every shard in sequence
	// while the loadgen runs: the rolling-restart certificate. The run ends
	// only after the full cycle completes and shards_up has returned to N.
	RollingRestart bool
	// RollingDelay is the pause between a shard's restart and the next
	// shard's drain (default 100ms).
	RollingDelay time.Duration

	// ChurnEvents, when positive, applies a seeded random schedule of
	// kill/drain/join events (chaos.Plan.ChurnSchedule) during the run,
	// then heals the fleet back to N shards. Exercises the nasty
	// interleavings: kill-during-drain, join-during-failover.
	ChurnEvents int
	// ChurnMinGap and ChurnMaxGap bound the gaps between churn events
	// (defaults 100ms and 400ms).
	ChurnMinGap time.Duration
	ChurnMaxGap time.Duration

	// HeartbeatInterval is the router's probe period (default 50ms — the
	// cert wants sub-second failover so the loadgen rides through it well
	// inside its retry budget).
	HeartbeatInterval time.Duration
	// FailThreshold is the router's consecutive-miss death threshold
	// (default 3).
	FailThreshold int
	// Retry overrides the loadgen client's retry policy (default
	// DefaultChaosRetry — persistent enough to ride out the failover).
	Retry *service.RetryPolicy

	// Partition, when non-nil, runs the partition nemesis: a seeded schedule
	// of link faults (symmetric splits, one-way router→shard drops, slow
	// links) realized by a chaos.Network wrapper that the router, every
	// shard's relay-probe client, and the loadgen client thread through.
	// Each event heals before the next; the run ends with the fleet at full
	// strength and the post-run journal audit attached to the result.
	// Incompatible with TenantBudget/TenantMaxActive: the audit needs
	// RetainSessions, and retained sessions never release their tenant
	// slots, so admission would starve.
	Partition *chaos.PartitionSpec
	// PartitionMinGap/PartitionMaxGap bound the gaps between partition
	// events (defaults 200ms and 500ms); PartitionMinDur/PartitionMaxDur
	// bound each event's hold time (defaults 700ms and 1.4s — long enough
	// to cross the router's confirmation threshold, short enough to heal
	// well inside the client retry budget).
	PartitionMinGap time.Duration
	PartitionMaxGap time.Duration
	PartitionMinDur time.Duration
	PartitionMaxDur time.Duration
	// SlowMaxDelay bounds the seeded per-request delay on slow-link events
	// (default 250ms — well under the router's 2s probe timeout, so a slow
	// link degrades latency without tripping failover).
	SlowMaxDelay time.Duration

	// Logf receives harness and router log lines.
	Logf func(format string, args ...any)
}

// ShardCertResult is a cluster certificate run's outcome.
type ShardCertResult struct {
	*service.LoadgenResult
	// Killed reports whether the mid-run shard kill actually happened (the
	// run may finish first).
	Killed bool
	// Victim is the killed shard's name.
	Victim string
	// Failovers, HandoffSessions, ShardsUp, and Recovering503 are the
	// router's counters at the end of the run.
	Failovers       int64
	HandoffSessions int64
	ShardsUp        int
	Recovering503   int64
	// Drains, Joins, and Migrated are the elastic-operation counters at the
	// end of the run (rolling-restart and churn certificates).
	Drains   int64
	Joins    int64
	Migrated int64
	// Restarted lists the shards the rolling-restart cycle completed, in
	// order.
	Restarted []string
	// ChurnApplied counts churn events that were actually applied.
	ChurnApplied int
	// PartitionsApplied counts nemesis events that ran to their heal.
	PartitionsApplied int
	// PartitionsSuspected, PartitionsHealed, and Partitioned503 are the
	// router's partition counters at the end of the run.
	PartitionsSuspected int64
	PartitionsHealed    int64
	Partitioned503      int64
	// Audit is the post-run journal consistency report (partition nemesis
	// runs only — they retain sessions so the WALs survive to be audited).
	Audit *audit.Report
}

// inflightHandler counts in-flight requests so the harness can wait out the
// victim's already-running handlers after the abrupt kill: a real SIGKILL
// stops WAL appends instantly, but an in-process http.Server.Close leaves
// handler goroutines running, and the cert must not let one append to a WAL
// a peer is mid-replay on.
type inflightHandler struct {
	h http.Handler
	n atomic.Int64
}

func (ih *inflightHandler) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	ih.n.Add(1)
	defer ih.n.Add(-1)
	ih.h.ServeHTTP(w, r)
}

// certShard is one restartable in-process shard daemon. stop tears down the
// listener abruptly (the in-process analogue of SIGKILL); start brings up a
// FRESH service.Server on the same journal directory and a new port —
// startup recovery skips fenced WALs, so a restarted shard whose sessions
// were adopted elsewhere comes back empty, exactly like a restarted real
// process would.
type certShard struct {
	name string
	jdir string
	scfg service.Config

	mu       sync.Mutex
	shard    Shard
	srv      *service.Server
	hs       *http.Server
	inflight *inflightHandler
	down     bool
}

func (cs *certShard) start() error {
	cs.mu.Lock()
	defer cs.mu.Unlock()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return err
	}
	srv := service.New(cs.scfg)
	ih := &inflightHandler{h: srv.Handler()}
	hs := &http.Server{Handler: ih, ReadHeaderTimeout: 10 * time.Second}
	go func() { _ = hs.Serve(ln) }()
	cs.shard = Shard{Name: cs.name, URL: "http://" + ln.Addr().String(), JournalDir: cs.jdir}
	cs.srv, cs.hs, cs.inflight = srv, hs, ih
	cs.down = false
	return nil
}

// stop kills the shard's listener and open connections, then waits out
// already-running handlers so no WAL append races a peer's adoption replay.
func (cs *certShard) stop() {
	cs.mu.Lock()
	hs, ih := cs.hs, cs.inflight
	cs.down = true
	cs.mu.Unlock()
	if hs != nil {
		_ = hs.Close()
	}
	if ih != nil {
		deadline := time.Now().Add(5 * time.Second)
		for ih.n.Load() > 0 && time.Now().Before(deadline) {
			time.Sleep(2 * time.Millisecond)
		}
	}
}

func (cs *certShard) current() (Shard, bool) {
	cs.mu.Lock()
	defer cs.mu.Unlock()
	return cs.shard, cs.down
}

// postAdmin POSTs one JSON body to a router admin endpoint.
func postAdmin(ctx context.Context, url string, body any) error {
	b, err := json.Marshal(body)
	if err != nil {
		return err
	}
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, url, bytes.NewReader(b))
	if err != nil {
		return err
	}
	req.Header.Set("Content-Type", "application/json")
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		rb, _ := io.ReadAll(io.LimitReader(resp.Body, 512))
		return fmt.Errorf("HTTP %d: %s", resp.StatusCode, rb)
	}
	_, _ = io.Copy(io.Discard, resp.Body)
	return nil
}

// joinWithRetry re-POSTs a join until it lands: a just-killed shard's
// membership entry passes through recovering (join refused, 409) before
// failover completes and rejoin-by-name becomes possible.
func joinWithRetry(ctx context.Context, routerURL string, sh Shard, logf func(string, ...any)) error {
	var last error
	for i := 0; i < 200; i++ {
		if err := ctx.Err(); err != nil {
			return err
		}
		last = postAdmin(ctx, routerURL+"/v1/admin/join", map[string]string{
			"name": sh.Name, "url": sh.URL, "journal_dir": sh.JournalDir,
		})
		if last == nil {
			return nil
		}
		if strings.Contains(last.Error(), "is up;") {
			// A concurrent join (e.g. the churn schedule's own) beat us to it.
			return nil
		}
		logf("cluster cert: join %s: %v; retrying", sh.Name, last)
		time.Sleep(50 * time.Millisecond)
	}
	return fmt.Errorf("join %s: %w", sh.Name, last)
}

// drainWithRetry re-POSTs a drain until it lands. Transient 409s are part of
// normal operation — an auto-rejoin may hold the topology-op lock, or the
// target may momentarily be joining/recovering after a heartbeat flap — and
// resolve within a few probe rounds. A target already left the ring counts
// as drained.
func drainWithRetry(ctx context.Context, routerURL, name string, logf func(string, ...any)) error {
	var last error
	for i := 0; i < 200; i++ {
		if err := ctx.Err(); err != nil {
			return err
		}
		last = postAdmin(ctx, routerURL+"/v1/admin/drain", map[string]string{"shard": name})
		if last == nil {
			return nil
		}
		if strings.Contains(last.Error(), "is left;") {
			return nil
		}
		logf("cluster cert: drain %s: %v; retrying", name, last)
		time.Sleep(50 * time.Millisecond)
	}
	return fmt.Errorf("drain %s: %w", name, last)
}

// waitShardsUp polls the router until shards_up reaches want.
func waitShardsUp(ctx context.Context, rt *Router, want int, timeout time.Duration) error {
	deadline := time.Now().Add(timeout)
	for time.Now().Before(deadline) {
		if err := ctx.Err(); err != nil {
			return err
		}
		if rt.members.shardsUp() >= want {
			return nil
		}
		time.Sleep(20 * time.Millisecond)
	}
	return fmt.Errorf("shards_up did not reach %d within %v (at %d)", want, timeout, rt.members.shardsUp())
}

// ShardCertify hosts an N-shard wire-serve cluster in-process — N shard
// daemons with private journal directories behind one router — drives
// loadgen through the router while injecting the configured faults, and
// returns the loadgen report plus the router's counters. Fault modes:
//
//   - KillAfterPlans: one abrupt shard kill mid-run; the certificate passes when
//     a failover completed and no session failed or mismatched its
//     in-process twin.
//   - RollingRestart: every shard in sequence is drained (graceful — its
//     sessions migrate while it serves), stopped, restarted fresh, and
//     rejoined; the fleet must end back at full strength with zero drops.
//   - ChurnEvents: a seeded random kill/drain/join schedule, then the fleet
//     is healed; the nasty interleavings (kill-during-drain,
//     join-during-failover) come free with the right seeds.
func ShardCertify(ctx context.Context, cfg ShardCertConfig) (*ShardCertResult, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	logf := cfg.Logf
	if logf == nil {
		logf = func(string, ...any) {}
	}
	if cfg.Shards <= 0 {
		cfg.Shards = 3
	}
	if cfg.HeartbeatInterval <= 0 {
		cfg.HeartbeatInterval = 50 * time.Millisecond
	}
	if cfg.FailThreshold <= 0 {
		cfg.FailThreshold = 3
	}
	if cfg.RollingDelay <= 0 {
		cfg.RollingDelay = 100 * time.Millisecond
	}
	if cfg.ChurnMinGap <= 0 {
		cfg.ChurnMinGap = 100 * time.Millisecond
	}
	if cfg.ChurnMaxGap <= 0 {
		cfg.ChurnMaxGap = 400 * time.Millisecond
	}
	if cfg.PartitionMinGap <= 0 {
		cfg.PartitionMinGap = 200 * time.Millisecond
	}
	if cfg.PartitionMaxGap <= 0 {
		cfg.PartitionMaxGap = 500 * time.Millisecond
	}
	if cfg.PartitionMinDur <= 0 {
		cfg.PartitionMinDur = 700 * time.Millisecond
	}
	if cfg.PartitionMaxDur <= 0 {
		cfg.PartitionMaxDur = 1400 * time.Millisecond
	}
	if cfg.SlowMaxDelay <= 0 {
		cfg.SlowMaxDelay = 250 * time.Millisecond
	}
	var network *chaos.Network
	if cfg.Partition != nil {
		if cfg.Loadgen.TenantBudget > 0 || cfg.Loadgen.TenantMaxActive > 0 {
			return nil, fmt.Errorf("cluster cert: -partition retains sessions for the post-run audit, which never releases tenant slots; it cannot run with tenant budgets or active caps")
		}
		network = chaos.NewNetwork(chaos.Plan{Seed: cfg.Seed})
		// Sessions must outlive the run so their WALs survive to be audited.
		cfg.Loadgen.RetainSessions = true
	}
	if cfg.JournalRoot == "" {
		dir, err := os.MkdirTemp("", "wire-serve-cluster-*")
		if err != nil {
			return nil, fmt.Errorf("cluster cert: %w", err)
		}
		defer os.RemoveAll(dir)
		cfg.JournalRoot = dir
	}

	// Start the shard fleet.
	shards := make([]*certShard, cfg.Shards)
	defer func() {
		for _, cs := range shards {
			if cs != nil {
				cs.mu.Lock()
				hs := cs.hs
				cs.mu.Unlock()
				if hs != nil {
					_ = hs.Close()
				}
			}
		}
	}()
	shardList := make([]Shard, cfg.Shards)
	for i := range shards {
		name := "s" + strconv.Itoa(i)
		jdir := filepath.Join(cfg.JournalRoot, name)
		if err := os.MkdirAll(jdir, 0o755); err != nil {
			return nil, fmt.Errorf("cluster cert: %w", err)
		}
		scfg := cfg.Server
		scfg.ShardMode = true
		scfg.JournalDir = jdir
		if network != nil {
			// Peer relay probes traverse the same faulty links as everything
			// else: a peer on the victim's side of a split cannot vouch for it.
			scfg.ProbeClient = &http.Client{Transport: network.Transport(name, nil)}
		}
		cs := &certShard{name: name, jdir: jdir, scfg: scfg}
		if err := cs.start(); err != nil {
			return nil, fmt.Errorf("cluster cert: %w", err)
		}
		shards[i] = cs
		shardList[i], _ = cs.current()
		if network != nil {
			network.Register(name, shardList[i].URL)
		}
	}

	// Start the router.
	rcfg := RouterConfig{
		Shards:            shardList,
		HeartbeatInterval: cfg.HeartbeatInterval,
		// A dead listener refuses connections instantly, so a generous
		// probe timeout costs nothing for death detection — but it keeps a
		// merely-slow shard (fsync under load, race-detector scheduling)
		// from flapping into spurious failovers mid-certificate.
		HeartbeatTimeout: 2 * time.Second,
		FailThreshold:    cfg.FailThreshold,
		Logf:             logf,
	}
	if network != nil {
		// Every router-originated request (proxies, probes, adopts) rides
		// the router's side of the nemesis links.
		rcfg.Client = &http.Client{Transport: network.Transport("router", nil)}
	}
	rt, err := NewRouter(rcfg)
	if err != nil {
		return nil, fmt.Errorf("cluster cert: %w", err)
	}
	rctx, cancel := context.WithCancel(ctx)
	defer cancel()
	go rt.Run(rctx)
	rln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, fmt.Errorf("cluster cert: %w", err)
	}
	rhs := &http.Server{Handler: rt.Handler(), ReadHeaderTimeout: 10 * time.Second}
	go func() { _ = rhs.Serve(rln) }()
	defer rhs.Close()
	routerURL := "http://" + rln.Addr().String()
	if network != nil {
		network.Register("router", routerURL)
	}

	retry := service.DefaultChaosRetry()
	if cfg.Retry != nil {
		retry = *cfg.Retry
	}
	copts := []service.ClientOption{service.WithRetry(retry)}
	if network != nil {
		// The client only talks to the router, but registering it gives the
		// nemesis a labeled edge should a schedule ever cut client↔router.
		copts = append(copts, service.WithTransport(network.Transport("client", nil)))
	}
	cfg.Loadgen.Client = service.NewClient(routerURL, copts...)

	resc := make(chan *service.LoadgenResult, 1)
	errc := make(chan error, 1)
	go func() {
		res, err := service.Loadgen(ctx, cfg.Loadgen)
		if err != nil {
			errc <- err
			return
		}
		resc <- res
	}()

	out := &ShardCertResult{}

	// Fault drivers run concurrently with the loadgen; faultc reports the
	// driver's completion (the rolling and churn certs require the full
	// cycle to finish even if the loadgen outpaces it).
	faultc := make(chan error, 1)
	switch {
	case cfg.Partition != nil:
		go func() {
			faultc <- partitionDriver(rctx, cfg, rt, network, shards, out, logf)
		}()
	case cfg.RollingRestart:
		go func() {
			faultc <- rollingRestartDriver(rctx, cfg, rt, routerURL, shards, out, logf)
		}()
	case cfg.ChurnEvents > 0:
		go func() {
			faultc <- churnDriver(rctx, cfg, rt, routerURL, shards, out, logf)
		}()
	case cfg.KillAfterPlans > 0:
		victim, jitter := chaos.Plan{Seed: cfg.Seed}.ShardKillSchedule(cfg.Shards, cfg.KillAfterPlans)
		killAt := int64(cfg.KillAfterPlans + jitter)
		tick := time.NewTicker(2 * time.Millisecond)
	killLoop:
		for {
			select {
			case res := <-resc:
				// The run outpaced the kill; certify without it.
				out.LoadgenResult = res
				break killLoop
			case err := <-errc:
				tick.Stop()
				return nil, err
			case <-tick.C:
				// Kill on the victim's own progress: it has served its seeded
				// share of plans and hosts a session right now, so the run has
				// work left that only a failover can finish. A timer instead
				// races the loadgen, which a faster plan path wins.
				cs := shards[victim]
				cs.mu.Lock()
				served, hosted := cs.srv.Metrics().Served("plan"), cs.srv.Store().Len()
				cs.mu.Unlock()
				if served < killAt || hosted == 0 {
					continue
				}
				sh, _ := cs.current()
				out.Killed = true
				out.Victim = sh.Name
				logf("cluster cert: killing shard %s at %s (abrupt, no drain; %d plan(s) served, %d session(s) aboard)", sh.Name, sh.URL, served, hosted)
				cs.stop()
				break killLoop
			}
		}
		tick.Stop()
		faultc <- nil
	default:
		faultc <- nil
	}

	var faultErr error
	needLoad := out.LoadgenResult == nil
	needFault := true
	for needLoad || needFault {
		select {
		case res := <-resc:
			out.LoadgenResult = res
			needLoad = false
		case err := <-errc:
			return nil, err
		case ferr := <-faultc:
			faultErr = ferr
			needFault = false
		}
	}
	if faultErr != nil {
		return nil, fmt.Errorf("cluster cert: fault driver: %w", faultErr)
	}

	rc := rt.Counters()
	out.Failovers = rc.FailoversTotal
	out.HandoffSessions = rc.HandoffSessionsTotal
	out.ShardsUp = rc.ShardsUp
	out.Recovering503 = rc.Recovering503Total
	out.Drains = rc.DrainsTotal
	out.Joins = rc.JoinsTotal
	out.Migrated = rc.MigratedSessionsTotal
	out.PartitionsSuspected = rc.PartitionsSuspectedTotal
	out.PartitionsHealed = rc.PartitionsHealedTotal
	out.Partitioned503 = rc.Partitioned503Total

	// Partition runs retain every session's WAL; audit the merged journals
	// before the harness (possibly) removes its temp root. The report — not
	// an error — carries any violations: the caller decides pass/fail.
	if cfg.Partition != nil {
		dirs := make([]string, len(shards))
		for i, cs := range shards {
			dirs[i] = cs.jdir
		}
		rep, err := audit.Run(audit.Config{Dirs: dirs})
		if err != nil {
			return nil, fmt.Errorf("cluster cert: post-run audit: %w", err)
		}
		out.Audit = rep
	}
	return out, nil
}

// partitionDriver realizes the nemesis schedule: per event it injects the
// link fault, holds it for the event's duration, heals, and moves on; after
// the last event it waits for the fleet to return to full strength (healed
// links re-answer probes; a split's fenced victim auto-rejoins).
func partitionDriver(ctx context.Context, cfg ShardCertConfig, rt *Router, network *chaos.Network, shards []*certShard, out *ShardCertResult, logf func(string, ...any)) error {
	plan := chaos.Plan{Seed: cfg.Seed}
	var events []chaos.PartitionEvent
	if len(cfg.Partition.Kinds) > 0 {
		events = plan.PartitionScheduleKinds(cfg.Partition.Kinds, len(shards), cfg.PartitionMinGap, cfg.PartitionMaxGap, cfg.PartitionMinDur, cfg.PartitionMaxDur)
	} else {
		n := cfg.Partition.Events
		if n <= 0 {
			n = 3
		}
		events = plan.PartitionSchedule(len(shards), n, cfg.PartitionMinGap, cfg.PartitionMaxGap, cfg.PartitionMinDur, cfg.PartitionMaxDur)
	}
	// Hold the schedule until the fleet actually hosts sessions: the event
	// offsets are relative to load being present, not to fleet boot, so the
	// first fault cannot outrun the loadgen's warm-up (mirrors the
	// hosted-session gate on the kill driver).
	gate := time.NewTicker(5 * time.Millisecond)
	for {
		hosted := 0
		for _, cs := range shards {
			cs.mu.Lock()
			if !cs.down && cs.srv != nil {
				hosted += cs.srv.Store().Len()
			}
			cs.mu.Unlock()
		}
		if hosted > 0 {
			break
		}
		select {
		case <-ctx.Done():
			gate.Stop()
			return ctx.Err()
		case <-gate.C:
		}
	}
	gate.Stop()
	start := time.Now()
	for _, ev := range events {
		if d := time.Until(start.Add(ev.At)); d > 0 {
			select {
			case <-ctx.Done():
				return ctx.Err()
			case <-time.After(d):
			}
		}
		victim, _ := shards[ev.Shard].current()
		switch ev.Kind {
		case chaos.PartitionSplit:
			// The victim alone on one side; router and every peer on the
			// other. Peers can't vouch for it → it is fenced and failed
			// over; after the heal it comes back fenced-stale and rejoins.
			others := []string{"router"}
			for i, cs := range shards {
				if i != ev.Shard {
					osh, _ := cs.current()
					others = append(others, osh.Name)
				}
			}
			logf("cluster cert: partition: splitting %s from {%s} for %v", victim.Name, strings.Join(others, ","), ev.Duration)
			network.Partition([]string{victim.Name}, others)
		case chaos.PartitionOneWay:
			// Router loses the victim but the peers still reach it → the
			// router suspects a partition, withholds failover, and answers
			// its sessions 503 shard_partitioned until the heal.
			logf("cluster cert: partition: cutting router->%s (one-way) for %v", victim.Name, ev.Duration)
			network.Cut("router", victim.Name)
		case chaos.PartitionSlow:
			logf("cluster cert: partition: slowing router->%s (<=%v/request) for %v", victim.Name, cfg.SlowMaxDelay, ev.Duration)
			network.Slow("router", victim.Name, cfg.SlowMaxDelay, 0.5)
		}
		select {
		case <-ctx.Done():
			return ctx.Err()
		case <-time.After(ev.Duration):
		}
		network.Heal()
		out.PartitionsApplied++
		logf("cluster cert: partition: healed %s (%s)", victim.Name, ev.Kind)
	}
	logf("cluster cert: partition: schedule applied; waiting for full strength")
	return waitShardsUp(ctx, rt, len(shards), 60*time.Second)
}

// rollingRestartDriver drains, restarts, and rejoins every shard in
// sequence: the in-process form of a rolling fleet upgrade. Each shard's
// sessions migrate off gracefully, the process is torn down and a fresh one
// started on the same journal directory (and a new port), and a join pulls
// its minimally-remapped key ranges back. The driver returns only when
// shards_up is back to the full fleet size.
func rollingRestartDriver(ctx context.Context, cfg ShardCertConfig, rt *Router, routerURL string, shards []*certShard, out *ShardCertResult, logf func(string, ...any)) error {
	for _, cs := range shards {
		if err := ctx.Err(); err != nil {
			return err
		}
		sh, _ := cs.current()
		logf("cluster cert: rolling restart: draining %s", sh.Name)
		if err := drainWithRetry(ctx, routerURL, sh.Name, logf); err != nil {
			return err
		}
		cs.stop()
		if err := cs.start(); err != nil {
			return fmt.Errorf("restart %s: %w", sh.Name, err)
		}
		nsh, _ := cs.current()
		logf("cluster cert: rolling restart: rejoining %s at %s", nsh.Name, nsh.URL)
		if err := joinWithRetry(ctx, routerURL, nsh, logf); err != nil {
			return err
		}
		if err := waitShardsUp(ctx, rt, len(shards), 30*time.Second); err != nil {
			return fmt.Errorf("after rejoining %s: %w", nsh.Name, err)
		}
		out.Restarted = append(out.Restarted, nsh.Name)
		time.Sleep(cfg.RollingDelay)
	}
	return nil
}

// churnDriver applies a seeded schedule of kill/drain/join events
// best-effort — a drain refused because the shard is already dead, or a
// join refused because it is still failing over, is itself a wanted
// interleaving — then heals the fleet (restart + rejoin every down shard)
// and waits for full strength.
func churnDriver(ctx context.Context, cfg ShardCertConfig, rt *Router, routerURL string, shards []*certShard, out *ShardCertResult, logf func(string, ...any)) error {
	schedule := chaos.Plan{Seed: cfg.Seed}.ChurnSchedule(len(shards), cfg.ChurnEvents, cfg.ChurnMinGap, cfg.ChurnMaxGap)
	start := time.Now()
	for _, ev := range schedule {
		if d := time.Until(start.Add(ev.At)); d > 0 {
			select {
			case <-ctx.Done():
				return ctx.Err()
			case <-time.After(d):
			}
		}
		cs := shards[ev.Shard]
		sh, down := cs.current()
		out.ChurnApplied++
		switch ev.Action {
		case chaos.ChurnKill:
			if down {
				logf("cluster cert: churn: kill %s: already down", sh.Name)
				continue
			}
			logf("cluster cert: churn: killing %s", sh.Name)
			cs.stop()
		case chaos.ChurnDrain:
			logf("cluster cert: churn: draining %s", sh.Name)
			// Async on purpose: a kill landing mid-drain is one of the
			// interleavings this certificate exists to exercise.
			go func(name string) {
				if err := postAdmin(ctx, routerURL+"/v1/admin/drain", map[string]string{"shard": name}); err != nil {
					logf("cluster cert: churn: drain %s: %v", name, err)
				}
			}(sh.Name)
		case chaos.ChurnJoin:
			if !down {
				// Live shard: a join is a no-op interleaving unless it had
				// drained out, in which case rejoin it.
				go func(sh Shard) {
					if err := postAdmin(ctx, routerURL+"/v1/admin/join", map[string]string{
						"name": sh.Name, "url": sh.URL, "journal_dir": sh.JournalDir,
					}); err != nil {
						logf("cluster cert: churn: join %s: %v", sh.Name, err)
					}
				}(sh)
				continue
			}
			if err := cs.start(); err != nil {
				return fmt.Errorf("churn: restart %s: %w", sh.Name, err)
			}
			nsh, _ := cs.current()
			logf("cluster cert: churn: restarting and joining %s at %s", nsh.Name, nsh.URL)
			go func(sh Shard) {
				if err := joinWithRetry(ctx, routerURL, sh, logf); err != nil {
					logf("cluster cert: churn: %v", err)
				}
			}(nsh)
		}
	}
	// Heal: bring every down shard back and rejoin until full strength.
	logf("cluster cert: churn: schedule applied; healing the fleet")
	deadline := time.Now().Add(60 * time.Second)
	for time.Now().Before(deadline) {
		if err := ctx.Err(); err != nil {
			return err
		}
		if rt.members.shardsUp() >= len(shards) {
			return nil
		}
		for _, cs := range shards {
			sh, down := cs.current()
			if down {
				if err := cs.start(); err != nil {
					return fmt.Errorf("churn heal: restart %s: %w", sh.Name, err)
				}
				sh, _ = cs.current()
			}
			// Rejoin is idempotent-ish: an up member answers 409, which is
			// fine; a left/failed one comes back.
			if err := postAdmin(ctx, routerURL+"/v1/admin/join", map[string]string{
				"name": sh.Name, "url": sh.URL, "journal_dir": sh.JournalDir,
			}); err != nil {
				logf("cluster cert: churn heal: join %s: %v", sh.Name, err)
			}
		}
		time.Sleep(100 * time.Millisecond)
	}
	return fmt.Errorf("churn heal: shards_up stuck at %d < %d", rt.members.shardsUp(), len(shards))
}
