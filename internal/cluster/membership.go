package cluster

import (
	"context"
	"errors"
	"fmt"
	"net/http"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/parallel"
	"repro/internal/service"
)

// memberState is the lifecycle of one shard in the membership table: shards
// drain out gracefully (up → draining → left), join or rejoin by name
// (unknown/left/failed → joining → up), and fail over on unplanned death
// (any serving state → recovering → failed).
type memberState int

const (
	memberUp memberState = iota
	// memberRecovering: declared dead, journal handoff not yet complete.
	// Requests for its sessions answer 503 shard_recovering.
	memberRecovering
	// memberFailed: handoff complete; requests follow the adopter pointer.
	memberFailed
	// memberDraining: being decommissioned. Takes no new sessions; existing
	// sessions keep answering here until the drain migration moves each to
	// its post-drain owner.
	memberDraining
	// memberLeft: drained out. Off the placement ring, owns nothing; the
	// table keeps the entry so the name can rejoin later.
	memberLeft
	// memberJoining: being added (or re-added) to the ring. Serves whatever
	// sessions the join migration has already handed it, but takes no new
	// creates until the join commits.
	memberJoining
	// memberPartitioned: unreachable from this router but confirmed alive by
	// a peer relay probe. NOT failed over — its journals are live and fencing
	// them would split-brain; its sessions answer 503 shard_partitioned until
	// the link heals (direct probe answers again) or the peers lose it too
	// (escalates to a real death declaration).
	memberPartitioned
)

func (s memberState) String() string {
	switch s {
	case memberUp:
		return "up"
	case memberRecovering:
		return "recovering"
	case memberFailed:
		return "failed"
	case memberDraining:
		return "draining"
	case memberLeft:
		return "left"
	case memberJoining:
		return "joining"
	case memberPartitioned:
		return "partitioned"
	default:
		return fmt.Sprintf("state(%d)", int(s))
	}
}

// serving reports whether a member in this state answers session traffic
// (and is therefore heartbeat-probed and eligible to fail over).
func (s memberState) serving() bool {
	return s == memberUp || s == memberDraining || s == memberJoining
}

// up reports whether a member in this state is fully up: it takes creates,
// adopts, and relays peer probes.
func (s memberState) up() bool { return s == memberUp }

type member struct {
	shard Shard
	// api speaks the shard API at shard.URL. It is built with the member and
	// rebuilt only when a join moves the member to a new URL.
	api    *service.Client
	state  memberState
	misses int
	// adopter points at the member now serving this member's sessions after
	// a death failover (state memberFailed). Chains are followed
	// transitively — the adopter may itself have failed over later.
	adopter string
	// comebacks counts consecutive successful probes of a failed member —
	// its process answering again at the recorded URL. At FailThreshold the
	// prober auto-rejoins it; rejoining guards against spawning twice.
	comebacks int
	rejoining bool
	// confirming guards against stacking peer-confirmation probes: one
	// in-flight confirmDown per member at a time.
	confirming bool
}

// peer is one member's shard and API client, copied out under ms.mu so the
// call can run without it.
type peer struct {
	Shard
	api *service.Client
}

func (m *member) peer() peer { return peer{m.shard, m.api} }

// newAPI builds the client the router speaks the shard API through: on the
// router's tagging transport, with the service client's default of one
// attempt per call, so a lost probe is a miss rather than a retry.
func (ms *membership) newAPI(url string) *service.Client {
	return service.NewClient(url, service.WithHTTPClient(ms.cfg.Client))
}

// withTimeout runs one shard API call under its own deadline.
func withTimeout[T any](ctx context.Context, d time.Duration, fn func(context.Context) (T, error)) (T, error) {
	ctx, cancel := context.WithTimeout(ctx, d)
	defer cancel()
	return fn(ctx)
}

// fanOut calls fn on every peer concurrently, each under the heartbeat
// timeout, and returns the results in peer order; a failed call leaves its
// slot zero. One worker per shard: a slow shard must not queue another.
func fanOut[T any](ctx context.Context, d time.Duration, peers []peer, fn func(*service.Client, context.Context) (T, error)) []T {
	return parallel.Collect(len(peers), parallel.Config{Workers: len(peers)}, func(i int) T {
		v, _ := withTimeout(ctx, d, func(ctx context.Context) (T, error) { return fn(peers[i].api, ctx) })
		return v
	})
}

// membership is the router's shard liveness table, failover engine, and —
// since the control plane went elastic — the owner of the placement ring and
// of the per-session routing overrides a planned migration leaves behind.
// One mutex guards the whole table; routing reads are a map lookup and a
// state switch, far off any hot path the shards themselves wouldn't
// dominate.
type membership struct {
	cfg RouterConfig

	mu    sync.Mutex
	order []string
	// members holds every name ever seen, including left and failed ones
	// (their entries keep adopter pointers and allow rejoin-by-name).
	members map[string]*member
	// ring is the current placement ring; drain and join swap it. ringNames
	// tracks the names it was built from, in construction order.
	ring      *Ring
	ringNames []string
	// overrides maps session ID → member name for sessions a planned
	// migration moved off their ring resolution. Resolved through the same
	// adopter-chasing as ring owners, so an override target that later dies
	// still routes to its adopter. Compacted when ring resolution catches
	// up (after the op's ring swap) and on session deletion.
	overrides map[string]string
	// migrating holds session IDs mid-handoff: exported from their donor
	// but not yet adopted by their target. Requests answer 503 and retry.
	migrating map[string]bool
	// epoch is the cluster fencing epoch, bumped once per topology
	// operation (failover, drain, join) and carried on every adopt/export
	// so shards can reject requests from a stale view of the world.
	epoch int64
	// graceUntil extends the elastic 404 grace window (see inGrace) past
	// the end of an operation, covering the repair pass.
	graceUntil time.Time
	ctx        context.Context

	// opMu serializes drain/join operations; concurrent admin requests get
	// 409 rather than interleaved migrations.
	opMu     sync.Mutex
	opActive atomic.Bool

	failovers       atomic.Int64
	handoffSessions atomic.Int64
	drains          atomic.Int64
	joins           atomic.Int64
	migrated        atomic.Int64
	// partitionsSuspected counts serving→partitioned transitions (a peer
	// confirmed a router-unreachable shard alive); partitionsHealed counts
	// partitioned→up restorations.
	partitionsSuspected atomic.Int64
	partitionsHealed    atomic.Int64
}

func newMembership(cfg RouterConfig, ring *Ring, names []string) *membership {
	ms := &membership{
		cfg:       cfg,
		order:     make([]string, 0, len(cfg.Shards)),
		members:   make(map[string]*member, len(cfg.Shards)),
		ring:      ring,
		ringNames: append([]string(nil), names...),
		overrides: make(map[string]string),
		migrating: make(map[string]bool),
	}
	for _, sh := range cfg.Shards {
		ms.order = append(ms.order, sh.Name)
		ms.members[sh.Name] = &member{shard: sh, api: ms.newAPI(sh.URL)}
	}
	return ms
}

// currentRing returns the placement ring (swapped by drain/join).
func (ms *membership) currentRing() *Ring {
	ms.mu.Lock()
	defer ms.mu.Unlock()
	return ms.ring
}

// nextEpoch issues a fresh fencing epoch for one topology operation.
func (ms *membership) nextEpoch() int64 {
	ms.mu.Lock()
	defer ms.mu.Unlock()
	ms.epoch++
	return ms.epoch
}

// follow resolves a member name to the shard currently serving its sessions,
// chasing adopter pointers across completed handoffs.
func (ms *membership) follow(name string) (Shard, routeState) {
	ms.mu.Lock()
	defer ms.mu.Unlock()
	return ms.followLocked(name, nil)
}

// followLocked is the one adopter-chain walk, for routing and migration
// targets alike. Under an op's final view fv (nil: the current table) its
// leaving member counts as left and its re-points replace the live adopters.
// Every other state stays live: a member declared dead since the view was
// built resolves through its adopter chain.
func (ms *membership) followLocked(name string, fv *finalView) (Shard, routeState) {
	for hops := 0; hops <= len(ms.order); hops++ {
		m := ms.members[name]
		if m == nil {
			return Shard{}, routeRecovering
		}
		st, adopter := m.state, m.adopter
		if fv != nil {
			if name == fv.leaving {
				st = memberLeft
			}
			if a, ok := fv.adopters[name]; ok {
				adopter = a
			}
		}
		switch {
		case st.serving():
			return m.shard, routeOK
		case st == memberFailed && adopter != "":
			name = adopter
		case st == memberPartitioned:
			return m.shard, routePartitioned
		default:
			return m.shard, routeRecovering
		}
	}
	return Shard{}, routeRecovering
}

// resolveSession maps a session ID to the shard currently serving it: a
// migration override when one exists, else the ring owner, then across
// adopter chains. A session mid-migration answers routeRecovering until its
// adopt lands.
func (ms *membership) resolveSession(id string) (Shard, routeState) {
	ms.mu.Lock()
	defer ms.mu.Unlock()
	if ms.migrating[id] {
		return Shard{}, routeRecovering
	}
	return ms.placeLocked(id, nil)
}

// placeLocked resolves where session id lives, whether or not it is
// mid-migration: under a final view, from its post-op ring owner; under the
// current table, from its migration override, else its ring owner.
func (ms *membership) placeLocked(id string, fv *finalView) (Shard, routeState) {
	if fv != nil {
		return ms.followLocked(fv.ring.Owner(id), fv)
	}
	name, ok := ms.overrides[id]
	if !ok {
		name = ms.ring.Owner(id)
	}
	return ms.followLocked(name, nil)
}

// resolveCreate places a NEW session: the ring owner followed across
// adopters, but only a fully-up terminal accepts creates — draining members
// are leaving and joining members aren't committed yet, so the router
// redraws the ID instead.
func (ms *membership) resolveCreate(id string) (Shard, routeState) {
	ms.mu.Lock()
	defer ms.mu.Unlock()
	sh, st := ms.followLocked(ms.ring.Owner(id), nil)
	if st != routeOK {
		return Shard{}, routeRecovering
	}
	if m := ms.members[sh.Name]; m == nil || m.state != memberUp {
		return Shard{}, routeRecovering
	}
	return sh, routeOK
}

// ownerName reports the ring owner's name for error messages.
func (ms *membership) ownerName(id string) string {
	ms.mu.Lock()
	defer ms.mu.Unlock()
	return ms.ring.Owner(id)
}

// dropOverride forgets a session's migration override (deleted or truly
// gone sessions must not pin table entries forever).
func (ms *membership) dropOverride(id string) {
	ms.mu.Lock()
	delete(ms.overrides, id)
	ms.mu.Unlock()
}

// Run probes shard liveness until ctx is canceled. Failover goroutines and
// admin-triggered migrations inherit ctx.
func (rt *Router) Run(ctx context.Context) {
	rt.members.run(ctx)
}

func (ms *membership) run(ctx context.Context) {
	ms.mu.Lock()
	ms.ctx = ctx
	ms.mu.Unlock()
	t := time.NewTicker(ms.cfg.HeartbeatInterval)
	defer t.Stop()
	for {
		select {
		case <-ctx.Done():
			return
		case <-t.C:
			ms.probeAll(ctx)
		}
	}
}

// opCtx is the context long-running elastic operations run under: the
// router's Run context when available (migrations must survive the admin
// HTTP request that triggered them), else Background.
func (ms *membership) opCtx() context.Context {
	ms.mu.Lock()
	defer ms.mu.Unlock()
	if ms.ctx != nil {
		return ms.ctx
	}
	return context.Background()
}

// probeAll heartbeats every serving member concurrently and waits for the
// round, so one slow shard cannot delay another's death detection by more
// than the probe timeout. Failed members are probed too: a process that
// comes back at its recorded URL (supervisor restart, healed partition)
// earns an automatic rejoin after FailThreshold consecutive answers.
func (ms *membership) probeAll(ctx context.Context) {
	ms.mu.Lock()
	targets := ms.peersLocked(func(st memberState) bool {
		return st.serving() || st == memberFailed || st == memberPartitioned
	}, "")
	ms.mu.Unlock()
	_ = parallel.ForEach(len(targets), parallel.Config{Workers: len(targets)}, func(i int) error {
		ms.probe(ctx, targets[i])
		return nil
	})
}

// probe heartbeats one shard's readiness endpoint. /readyz rather than
// /healthz: a shard mid-replay or draining answers 503 there, which counts as
// alive-but-not-ready (noteBusy) — it neither accrues death misses nor earns
// comeback credit, so a replaying shard is never routed to nor rejoined
// early. Only a transport error or a non-ready non-503 answer is a miss.
func (ms *membership) probe(ctx context.Context, p peer) {
	_, err := withTimeout(ctx, ms.cfg.HeartbeatTimeout, p.api.Ready)
	var ae *service.APIError
	switch {
	case err == nil:
		ms.noteSuccess(p.Name)
	case errors.As(err, &ae) && ae.StatusCode == http.StatusServiceUnavailable:
		ms.noteBusy(p.Name)
	default:
		ms.noteFailure(p.Name)
	}
}

func (ms *membership) noteSuccess(name string) {
	ms.mu.Lock()
	m := ms.members[name]
	if m == nil {
		ms.mu.Unlock()
		return
	}
	if m.state.serving() {
		m.misses = 0
		ms.mu.Unlock()
		return
	}
	if m.state == memberPartitioned {
		// The router can reach it directly again: the partition healed.
		m.state = memberUp
		m.misses = 0
		ms.partitionsHealed.Add(1)
		ms.mu.Unlock()
		ms.cfg.Logf("wire-serve route: partition to shard %s healed; restoring it to up", name)
		return
	}
	if m.state != memberFailed {
		ms.mu.Unlock()
		return
	}
	// A failed member answering again: require a full threshold of
	// consecutive answers (hysteresis against flap) before rejoining it.
	m.comebacks++
	if m.comebacks < ms.cfg.FailThreshold || m.rejoining {
		ms.mu.Unlock()
		return
	}
	m.rejoining = true
	sh := m.shard
	ms.mu.Unlock()
	ms.cfg.Logf("wire-serve route: failed shard %s is answering health probes again; auto-rejoining", name)
	go ms.autoRejoin(sh)
}

// autoRejoin puts a recovered failed member back on the ring via the normal
// join path (minimal migration, fresh fencing epoch). Errors are expected —
// another topology op may hold the lock, or an operator may have joined it
// first. A join refused before it started leaves the member failed, so it
// earns comebacks again; one that failed mid-rebalance leaves it joining,
// which earns none, and an admin join at the same URL retries it.
func (ms *membership) autoRejoin(sh Shard) {
	res, err := ms.join(ms.opCtx(), sh)
	ms.mu.Lock()
	if m := ms.members[sh.Name]; m != nil {
		m.rejoining = false
		m.comebacks = 0
	}
	ms.mu.Unlock()
	if err != nil {
		ms.cfg.Logf("wire-serve route: auto-rejoin of %s failed: %v; retried after %d more answers if it is still failed, else by an admin join", sh.Name, err, ms.cfg.FailThreshold)
		return
	}
	ms.cfg.Logf("wire-serve route: auto-rejoined %s: %d session(s) moved back (epoch %d)", sh.Name, res.SessionsMoved, res.Epoch)
}

// noteBusy records an alive-but-not-ready answer (503 from /readyz: the
// shard is draining or replaying an adopt). It clears death misses — the
// process is demonstrably up — but earns no comeback credit: auto-rejoining
// a failed member mid-replay would route traffic into its 503s.
func (ms *membership) noteBusy(name string) {
	ms.mu.Lock()
	defer ms.mu.Unlock()
	m := ms.members[name]
	if m == nil {
		return
	}
	if m.state.serving() || m.state == memberPartitioned {
		m.misses = 0
	}
}

// noteFailure records one heartbeat miss (or proxy transport error). At the
// threshold the shard is NOT declared dead outright: a confirmation probe is
// relayed through a surviving peer first, and only when no peer can reach it
// either does the journal handoff start. A shard peers can still reach is
// partitioned from the router, not dead — fencing it would orphan a live
// writer's sessions behind a healable link fault. Draining and joining
// members die like up ones — kill-during-drain falls back to the
// unplanned-death path. A partitioned member keeps missing direct probes;
// at each fresh threshold the confirmation re-runs, so a partition that
// widens (peers lose it too) escalates to a real failover.
func (ms *membership) noteFailure(name string) {
	ms.mu.Lock()
	m := ms.members[name]
	if m == nil || !(m.state.serving() || m.state == memberPartitioned) {
		if m != nil && m.state == memberFailed {
			m.comebacks = 0
		}
		ms.mu.Unlock()
		return
	}
	m.misses++
	if m.misses < ms.cfg.FailThreshold || m.confirming {
		ms.mu.Unlock()
		return
	}
	m.confirming = true
	m.misses = 0
	was := m.state
	ctx := ms.ctx
	ms.mu.Unlock()
	if ctx == nil {
		ctx = context.Background()
	}
	go ms.confirmDown(ctx, name, was)
}

// confirmDown asks the surviving peers whether they can reach a shard the
// router has lost. Reachable → the member is partitioned-from-me: withhold
// failover, answer its sessions 503 shard_partitioned, keep probing.
// Unreachable from everyone → declared dead, journal handoff starts.
func (ms *membership) confirmDown(ctx context.Context, name string, was memberState) {
	reachable := ms.peerConfirm(ctx, name)
	ms.mu.Lock()
	m := ms.members[name]
	if m == nil {
		ms.mu.Unlock()
		return
	}
	m.confirming = false
	if m.state != was {
		// The member moved on while we confirmed (healed, drained, or an
		// operator intervened); this verdict is stale.
		ms.mu.Unlock()
		return
	}
	if reachable {
		if m.state != memberPartitioned {
			m.state = memberPartitioned
			ms.partitionsSuspected.Add(1)
			ms.mu.Unlock()
			ms.cfg.Logf("wire-serve route: shard %s unreachable from the router but confirmed alive via a peer; suspecting a partition (failover withheld)", name)
			return
		}
		ms.mu.Unlock()
		return
	}
	m.state = memberRecovering
	ms.mu.Unlock()
	ms.failovers.Add(1)
	ms.cfg.Logf("wire-serve route: shard %s (%s) declared dead after %d consecutive failures and no peer confirmation; starting journal handoff", name, was, ms.cfg.FailThreshold)
	go ms.failover(ctx, name)
}

// peerConfirm relays a reachability probe for the suspect through each up
// peer in membership order, stopping at the first peer that reports the
// suspect answered HTTP at all (any status — a replaying shard is alive).
// No up peers, or no peer able to reach it, means unconfirmed: false.
func (ms *membership) peerConfirm(ctx context.Context, suspect string) bool {
	ms.mu.Lock()
	sm := ms.members[suspect]
	if sm == nil {
		ms.mu.Unlock()
		return false
	}
	target := sm.shard.URL
	peers := ms.peersLocked(memberState.up, suspect)
	ms.mu.Unlock()
	for _, p := range peers {
		pr, err := withTimeout(ctx, ms.cfg.HeartbeatTimeout, func(ctx context.Context) (*service.ProbeResponse, error) {
			return p.api.RelayProbe(ctx, target)
		})
		if err == nil && pr.Reachable {
			return true
		}
	}
	return false
}

// successorLocked is the one successor rule, for a failover's adopter and a
// drain's re-points alike: the first fully-up member after from in
// membership order (wrapping), skipping skip, or "" if there is none — so the
// choice is deterministic and spreads consecutive deaths across the fleet.
// from missing from the order is a table-corruption-class bug, reported as
// an explicit error rather than silently starting from position zero.
func (ms *membership) successorLocked(from, skip string) (string, error) {
	idx := slices.Index(ms.order, from)
	if idx == -1 {
		return "", fmt.Errorf("cluster: shard %q is not in the membership order %v", from, ms.order)
	}
	for off := 1; off < len(ms.order); off++ {
		name := ms.order[(idx+off)%len(ms.order)]
		if name != skip && ms.members[name].state == memberUp {
			return name, nil
		}
	}
	return "", nil
}

// failover hands the dead shard's journal directory to a surviving peer and
// re-points routing at it. It retries (re-selecting the adopter each
// attempt — the first choice may itself die) until the handoff lands or ctx
// ends; until then the dead shard's sessions answer 503 shard_recovering.
// Adoption copies each WAL into the adopter's own journal directory and
// fences the source, so a later failover of the adopter moves everything it
// holds, and a stale process still appending to the source is rejected.
func (ms *membership) failover(ctx context.Context, dead string) {
	epoch := ms.nextEpoch()
	attempted := false
	for ctx.Err() == nil {
		// A join (operator, auto-rejoin, or cluster-down bootstrap) may have
		// taken the member over while this goroutine slept; adopting its
		// journal now would fence a live writer. Stand down.
		ms.mu.Lock()
		dm := ms.members[dead]
		stillDead := dm != nil && dm.state == memberRecovering
		ms.mu.Unlock()
		if !stillDead {
			ms.cfg.Logf("wire-serve route: failover of %s stood down: member no longer awaiting handoff", dead)
			return
		}
		// Re-probe the "dead" shard once more before touching its journal:
		// a scheduling stall can push a perfectly healthy member past the
		// fail threshold (it can even flap every member at once, and with
		// no recovering→up path the fleet would wedge in "no live peer"
		// forever). A shard that answers here was declared spuriously —
		// revive it instead of fencing it out. Only safe while no adoption
		// was attempted: a timed-out attempt may have fenced part of the
		// journal mid-copy, after which the member must stay down until a
		// full handoff lands.
		if !attempted && ms.reviveIfHealthy(ctx, dead) {
			return
		}
		ms.mu.Lock()
		adopter, err := ms.successorLocked(dead, "")
		dirs := []string{dm.shard.JournalDir}
		ms.mu.Unlock()
		if err != nil {
			ms.cfg.Logf("wire-serve route: failover of %s aborted: %v", dead, err)
			return
		}
		if adopter == "" {
			ms.cfg.Logf("wire-serve route: no live peer to adopt %s; cluster is down, retrying", dead)
			sleepCtx(ctx, ms.cfg.HeartbeatInterval)
			continue
		}
		attempted = true
		n, err := ms.adopt(ctx, adopter, service.AdoptRequest{JournalDirs: dirs, From: dead, Epoch: epoch})
		if err != nil {
			ms.cfg.Logf("wire-serve route: handoff %s -> %s failed: %v; retrying", dead, adopter, err)
			sleepCtx(ctx, ms.cfg.HeartbeatInterval)
			// A drain or join that ran since we started may have advanced
			// the cluster past our epoch, which makes it permanently stale
			// (adopters reject it with 409). Claim a fresh one per retry.
			epoch = ms.nextEpoch()
			continue
		}
		ms.mu.Lock()
		deadM := ms.members[dead]
		if deadM.state == memberRecovering {
			deadM.adopter = adopter
			deadM.state = memberFailed
		}
		ms.mu.Unlock()
		ms.handoffSessions.Add(int64(n))
		ms.cfg.Logf("wire-serve route: handoff complete: %s adopted %d session(s) from %s (epoch %d)", adopter, n, dead, epoch)
		return
	}
}

// reviveIfHealthy re-probes a member declared dead and, if it answers its
// health check while still awaiting an adopter, restores it to up. A member
// that was draining or joining when it flapped comes back as plain up; if
// the interrupted op left it off the ring, a retried join repairs that. The
// caller must ensure no adoption was ever attempted for this declaration.
func (ms *membership) reviveIfHealthy(ctx context.Context, dead string) bool {
	ms.mu.Lock()
	m := ms.members[dead]
	if m == nil || m.state != memberRecovering {
		ms.mu.Unlock()
		return false
	}
	api := m.api
	ms.mu.Unlock()
	if _, err := withTimeout(ctx, ms.cfg.HeartbeatTimeout, api.Ready); err != nil {
		return false
	}
	ms.mu.Lock()
	defer ms.mu.Unlock()
	if m := ms.members[dead]; m != nil && m.state == memberRecovering {
		m.state = memberUp
		m.misses = 0
		ms.cfg.Logf("wire-serve route: shard %s answered its health probe with no adopter available; reviving it (spurious death declaration)", dead)
		return true
	}
	return false
}

// adopt hands journals to the adopter and returns how many sessions it now
// hosts of the offered set.
func (ms *membership) adopt(ctx context.Context, adopter string, areq service.AdoptRequest) (int, error) {
	ms.mu.Lock()
	m := ms.members[adopter]
	if m == nil {
		ms.mu.Unlock()
		return 0, fmt.Errorf("adopt: unknown shard %q", adopter)
	}
	api := m.api
	ms.mu.Unlock()
	ar, err := withTimeout(ctx, ms.cfg.AdoptTimeout, func(ctx context.Context) (*service.AdoptResponse, error) {
		return api.Adopt(ctx, areq)
	})
	if err != nil {
		return 0, err
	}
	return ar.Sessions, nil
}

// shardsUp counts fully-up members (draining and joining are transitional
// and excluded — shards_up regaining its full count is the rolling-restart
// smoke's completion signal).
func (ms *membership) shardsUp() int {
	ms.mu.Lock()
	defer ms.mu.Unlock()
	return len(ms.peersLocked(memberState.up, ""))
}

// status snapshots the membership table for /metrics and /healthz.
func (ms *membership) status() map[string]ShardStatus {
	ms.mu.Lock()
	defer ms.mu.Unlock()
	out := make(map[string]ShardStatus, len(ms.members))
	for name, m := range ms.members {
		var dirs []string
		if m.state.serving() || m.state == memberRecovering || m.state == memberPartitioned {
			dirs = []string{m.shard.JournalDir}
		}
		out[name] = ShardStatus{
			URL:         m.shard.URL,
			State:       m.state.String(),
			Adopter:     m.adopter,
			JournalDirs: dirs,
		}
	}
	return out
}

// peersLocked is the one member snapshot: the members whose state keep
// admits, except the one named except, in membership order.
func (ms *membership) peersLocked(keep func(memberState) bool, except string) []peer {
	out := make([]peer, 0, len(ms.order))
	for _, name := range ms.order {
		if m := ms.members[name]; name != except && keep(m.state) {
			out = append(out, m.peer())
		}
	}
	return out
}

// servingPeers snapshots the serving members (fan-outs).
func (ms *membership) servingPeers() []peer {
	ms.mu.Lock()
	defer ms.mu.Unlock()
	return ms.peersLocked(memberState.serving, "")
}

func sleepCtx(ctx context.Context, d time.Duration) {
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-ctx.Done():
	case <-t.C:
	}
}
