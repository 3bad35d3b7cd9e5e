package cluster

// Elastic membership operations: graceful drain, join-time rebalancing, and
// rejoin-by-name.
//
// Both operations share one shape:
//
//  1. Under the table lock: validate, flip the subject's state (up→draining
//     or →joining), and issue a fresh fencing epoch.
//  2. Compute the FINAL view — the ring as it will be after the op, plus
//     any adopter re-points a drain forces — without installing it yet.
//  3. List donor sessions (the draining shard's, or — for a join — every
//     serving member's) and keep only those whose final-view resolution
//     differs from where they are now: the minimally-remapped set.
//  4. Move each batch: mark migrating (requests 503 + retry), export from
//     the donor (detach + close WAL), adopt on the target (fenced copy +
//     replay), then record a routing override so the session is servable
//     immediately, before the ring swap.
//  5. Commit under the lock: install the final ring and states, and compact
//     overrides the new ring resolution now agrees with.
//  6. Repair: re-list every serving member and migrate any stray the racing
//     window let through (creates placed under the old ring, failover
//     adoptions landing mid-op), until a pass finds none.
//
// An op that fails mid-flight (donor died, router shutting down) leaves a
// consistent, retryable cluster: moved sessions answer at their targets via
// overrides, unmoved ones via the old ring — and a donor that died keeps
// its exported WALs on disk where the death-failover path will find them.

import (
	"context"
	"errors"
	"fmt"
	"net/http"
	"path/filepath"
	"strings"
	"time"

	"repro/internal/service"
)

// opError is an elastic-op failure with an HTTP status for the admin API.
type opError struct {
	status int
	msg    string
}

func (e *opError) Error() string { return e.msg }

func opErrorf(status int, format string, args ...any) *opError {
	return &opError{status: status, msg: fmt.Sprintf(format, args...)}
}

// DrainResult is the POST /v1/admin/drain response body.
type DrainResult struct {
	Shard         string `json:"shard"`
	Epoch         int64  `json:"epoch"`
	SessionsMoved int    `json:"sessions_moved"`
}

// JoinResult is the POST /v1/admin/join response body.
type JoinResult struct {
	Shard         string `json:"shard"`
	Epoch         int64  `json:"epoch"`
	Rejoined      bool   `json:"rejoined"`
	SessionsMoved int    `json:"sessions_moved"`
}

// finalView is the membership overlay an in-flight elastic operation
// resolves migration targets against: the post-op ring plus the state and
// adopter changes the op will commit. Liveness stays live — an overlay can
// promote a joining member to up, but a member the prober has since
// declared dead resolves through its (overlaid) adopter chain, not the
// overlay's optimism.
type finalView struct {
	ring     *Ring
	states   map[string]memberState
	adopters map[string]string
}

// finalTargetLocked resolves where id must live under the final view,
// requiring the terminal member to be serving RIGHT NOW (it is about to be
// asked to adopt). ok=false means the chain currently ends somewhere that
// cannot accept an adoption yet (recovering); the migration loop re-resolves
// and retries. A nil view resolves under the current table (repair pass).
func (ms *membership) finalTargetLocked(fv *finalView, id string) (Shard, bool) {
	var name string
	switch {
	case fv != nil:
		name = fv.ring.Owner(id)
	default:
		var ok bool
		if name, ok = ms.overrides[id]; !ok {
			name = ms.ring.Owner(id)
		}
	}
	for hops := 0; hops <= len(ms.order)+1; hops++ {
		m := ms.members[name]
		if m == nil {
			return Shard{}, false
		}
		st := m.state
		ad := m.adopter
		if fv != nil {
			if ov, ok := fv.states[name]; ok {
				switch {
				case ov == memberLeft:
					// The drain subject: targets must avoid it even while
					// it still serves.
					st = memberLeft
				case ov == memberUp && st == memberJoining:
					// The join subject: adoptable while actually alive.
					st = memberUp
				}
			}
			if ov, ok := fv.adopters[name]; ok {
				ad = ov
			}
		}
		switch {
		case st.serving():
			return m.shard, true
		case st == memberFailed && ad != "":
			name = ad
		default:
			return Shard{}, false
		}
	}
	return Shard{}, false
}

// setMigrating marks or clears a batch of sessions as mid-handoff.
func (ms *membership) setMigrating(ids []string, on bool) {
	ms.mu.Lock()
	for _, id := range ids {
		if on {
			ms.migrating[id] = true
		} else {
			delete(ms.migrating, id)
		}
	}
	ms.mu.Unlock()
}

// errMigrateRolledBack marks a stalled migration whose un-adopted sessions
// were successfully re-adopted by the donor itself: the cluster is exactly
// as before the move and the op can safely revert its state flip.
var errMigrateRolledBack = errors.New("cluster: stalled migration rolled back to the donor")

// migrateStallRounds is how many consecutive no-progress rounds (one
// HeartbeatInterval each) a migration tolerates before giving up. Targets
// legitimately disappear for a few rounds mid-failover; a cluster with no
// adoptable target at all must NOT be waited out while holding the
// topology-op lock — the join that would create a target needs that lock.
const migrateStallRounds = 40

// migrate moves the named sessions off donor to their final-view owners:
// mark migrating, export once, then adopt each WAL on its (re-resolved each
// round) target until every file lands, the migration stalls, or ctx ends.
// Sessions the donor no longer hosts just leave the migrating set — the
// existing routing answers for them. Returns how many sessions moved.
func (ms *membership) migrate(ctx context.Context, donor peer, ids []string, fv *finalView, epoch int64) (int, error) {
	if len(ids) == 0 {
		return 0, nil
	}
	ms.setMigrating(ids, true)
	exp, err := withTimeout(ctx, ms.cfg.AdoptTimeout, func(ctx context.Context) (*service.ExportResponse, error) {
		return donor.api.Export(ctx, service.ExportRequest{SessionIDs: ids, Epoch: epoch})
	})
	if err != nil {
		ms.setMigrating(ids, false)
		return 0, fmt.Errorf("export from %s: %w", donor.Name, err)
	}
	ms.setMigrating(exp.Missing, false)

	// id → exported WAL path.
	files := make(map[string]string, len(exp.JournalFiles))
	for _, p := range exp.JournalFiles {
		id := strings.TrimSuffix(filepath.Base(p), ".wal")
		files[id] = p
	}
	moved := 0
	stalled := 0
	for len(files) > 0 {
		if ctx.Err() != nil {
			// Router shutting down mid-migration: the un-adopted sessions
			// stay marked migrating (their state lives only in exported WAL
			// files now); a death failover of the donor remains the path
			// that would recover them.
			return moved, fmt.Errorf("migration from %s interrupted: %w", donor.Name, ctx.Err())
		}
		// Group the remaining files by their current target.
		groups := make(map[string][]string)
		ms.mu.Lock()
		for id := range files {
			if sh, ok := ms.finalTargetLocked(fv, id); ok {
				groups[sh.Name] = append(groups[sh.Name], id)
			}
		}
		ms.mu.Unlock()
		progress := false
		for tname, gids := range groups {
			paths := make([]string, len(gids))
			for i, id := range gids {
				paths[i] = files[id]
			}
			if _, err := ms.adopt(ctx, tname, service.AdoptRequest{JournalFiles: paths, From: donor.Name, Epoch: epoch}); err != nil {
				ms.cfg.Logf("wire-serve route: migrating %d session(s) %s -> %s: %v; retrying", len(gids), donor.Name, tname, err)
				ms.noteFailure(tname)
				continue
			}
			progress = true
			ms.mu.Lock()
			for _, id := range gids {
				ms.overrides[id] = tname
				delete(ms.migrating, id)
				delete(files, id)
			}
			ms.mu.Unlock()
			moved += len(gids)
		}
		if progress {
			stalled = 0
			continue
		}
		stalled++
		if stalled < migrateStallRounds {
			sleepCtx(ctx, ms.cfg.HeartbeatInterval)
			continue
		}
		// No adoptable target for too long. The exported WALs sit in the
		// donor's own journal directory — hand them straight back to it
		// (own-dir re-adopt lifts nothing: export leaves no fence) so the
		// sessions are live again, then fail the op as cleanly reverted.
		remIDs := make([]string, 0, len(files))
		remPaths := make([]string, 0, len(files))
		for id, p := range files {
			remIDs = append(remIDs, id)
			remPaths = append(remPaths, p)
		}
		if _, rerr := ms.adopt(ctx, donor.Name, service.AdoptRequest{JournalFiles: remPaths, From: donor.Name, Epoch: epoch}); rerr != nil {
			ms.cfg.Logf("wire-serve route: rolling %d stalled session(s) back to %s: %v", len(remPaths), donor.Name, rerr)
			return moved, fmt.Errorf("migration from %s stalled with no adoptable target for %d session(s); their WALs stay exported for failover", donor.Name, len(files))
		}
		ms.setMigrating(remIDs, false)
		ms.migrated.Add(int64(moved))
		return moved, fmt.Errorf("migration from %s stalled with no adoptable target; %d session(s) %w", donor.Name, len(remPaths), errMigrateRolledBack)
	}
	ms.migrated.Add(int64(moved))
	return moved, nil
}

// repointsLocked computes new adopter pointers for failed members whose
// adopter chains currently terminate at avoid (their sessions live on the
// member about to drain out): each is re-pointed at the first fully-up
// member after it in order, skipping avoid. The drain migration then moves
// those sessions to exactly that member, keeping the single-pointer model
// consistent.
func (ms *membership) repointsLocked(avoid string) (map[string]string, error) {
	rp := make(map[string]string)
	for name, m := range ms.members {
		if m.state != memberFailed {
			continue
		}
		if sh, st := ms.followLocked(name); st != routeOK || sh.Name != avoid {
			continue
		}
		idx := -1
		for i, n := range ms.order {
			if n == name {
				idx = i
				break
			}
		}
		if idx == -1 {
			return nil, fmt.Errorf("cluster: failed shard %q is not in the membership order", name)
		}
		target := ""
		for off := 1; off <= len(ms.order); off++ {
			cand := ms.order[(idx+off)%len(ms.order)]
			if cand == name || cand == avoid {
				continue
			}
			if cm := ms.members[cand]; cm != nil && cm.state == memberUp {
				target = cand
				break
			}
		}
		if target == "" {
			return nil, fmt.Errorf("cluster: no live peer to re-point failed shard %q away from %q", name, avoid)
		}
		rp[name] = target
	}
	return rp, nil
}

// beginGrace opens (or extends) the elastic 404 grace window.
func (ms *membership) beginGrace() {
	d := 4 * ms.cfg.HeartbeatInterval
	if d < 2*time.Second {
		d = 2 * time.Second
	}
	ms.mu.Lock()
	ms.graceUntil = ms.cfg.Clock().Add(d)
	ms.mu.Unlock()
}

// inGrace reports whether session 404s from shards should be answered as
// retryable 503s: an elastic operation is redistributing sessions (or just
// finished and the repair pass may still be placing strays), so a 404 may
// be a routing transient rather than a deleted session.
func (ms *membership) inGrace() bool {
	if ms.opActive.Load() {
		return true
	}
	ms.mu.Lock()
	defer ms.mu.Unlock()
	return ms.cfg.Clock().Before(ms.graceUntil)
}

// shouldRetry404 reports whether a 404 a shard returned for session id ought
// to be rewritten into a retryable 503: the session may simply not have
// arrived at its new home yet. True while the session is marked migrating,
// while the elastic grace window is open, or when routing has already moved
// on from the shard that was asked (the resolution raced the op's commit).
func (ms *membership) shouldRetry404(id, askedShard string) bool {
	if ms.inGrace() {
		return true
	}
	ms.mu.Lock()
	defer ms.mu.Unlock()
	if ms.migrating[id] {
		return true
	}
	sh, st := ms.resolveSessionLocked(id)
	return st != routeOK || sh.Name != askedShard
}

// drain gracefully decommissions a shard: new sessions stop landing on it,
// every session it hosts migrates to its post-drain owner, and the member
// leaves the ring. The shard process itself stays up throughout — it is the
// donor — and can be stopped once drain returns.
func (ms *membership) drain(ctx context.Context, name string) (*DrainResult, error) {
	if !ms.opMu.TryLock() {
		return nil, opErrorf(http.StatusConflict, "another topology operation is in progress; retry")
	}
	defer ms.opMu.Unlock()
	ms.opActive.Store(true)
	defer ms.opActive.Store(false)

	ms.mu.Lock()
	m := ms.members[name]
	if m == nil {
		ms.mu.Unlock()
		return nil, opErrorf(http.StatusNotFound, "unknown shard %q", name)
	}
	if m.state != memberUp {
		st := m.state
		ms.mu.Unlock()
		return nil, opErrorf(http.StatusConflict, "shard %s is %s; only an up shard can drain", name, st)
	}
	liveOthers := 0
	for n2, m2 := range ms.members {
		if n2 != name && m2.state == memberUp {
			liveOthers++
		}
	}
	if liveOthers == 0 {
		ms.mu.Unlock()
		return nil, opErrorf(http.StatusConflict, "cannot drain %s: it is the last live shard", name)
	}
	m.state = memberDraining
	ms.epoch++
	epoch := ms.epoch
	donor := m.peer()
	names := make([]string, 0, len(ms.ringNames))
	for _, n2 := range ms.ringNames {
		if n2 != name {
			names = append(names, n2)
		}
	}
	rp, rpErr := ms.repointsLocked(name)
	ms.mu.Unlock()

	revert := func() {
		ms.mu.Lock()
		if mm := ms.members[name]; mm != nil && mm.state == memberDraining {
			mm.state = memberUp
		}
		ms.mu.Unlock()
	}
	if rpErr != nil {
		revert()
		return nil, opErrorf(http.StatusConflict, "drain %s: %v", name, rpErr)
	}
	ring2, err := NewRing(names, ms.cfg.VNodes)
	if err != nil {
		revert()
		return nil, opErrorf(http.StatusInternalServerError, "drain %s: rebuilding ring: %v", name, err)
	}
	fv := &finalView{ring: ring2, states: map[string]memberState{name: memberLeft}, adopters: rp}

	ids, err := withTimeout(ctx, ms.cfg.AdoptTimeout, donor.api.ListSessions)
	if err != nil {
		revert()
		return nil, opErrorf(http.StatusBadGateway, "drain %s: listing sessions: %v", name, err)
	}
	ms.cfg.Logf("wire-serve route: draining %s: migrating %d session(s) (epoch %d)", name, len(ids), epoch)
	moved, err := ms.migrate(ctx, donor, ids, fv, epoch)
	if err != nil {
		if errors.Is(err, errMigrateRolledBack) {
			// Everything un-moved is hosted by the donor again: return it
			// to full service. Already-moved sessions stay with their
			// adopters via overrides.
			revert()
			return nil, opErrorf(http.StatusBadGateway, "drain %s: %v", name, err)
		}
		// Donor died or export failed mid-drain: leave the member state
		// as-is — the heartbeat prober owns a draining member like any
		// other, so an unplanned death mid-drain falls back to failover.
		// Moved sessions answer via overrides; the op is retryable.
		return nil, opErrorf(http.StatusBadGateway, "drain %s: %v", name, err)
	}

	ms.mu.Lock()
	if mm := ms.members[name]; mm != nil && mm.state == memberDraining {
		mm.state = memberLeft
		mm.adopter = ""
		mm.misses = 0
	}
	ms.ring = ring2
	ms.ringNames = names
	for f, a := range rp {
		ms.members[f].adopter = a
	}
	ms.compactOverridesLocked()
	ms.mu.Unlock()
	ms.drains.Add(1)
	ms.beginGrace()

	if n, rerr := ms.repair(ctx, epoch); rerr != nil {
		ms.cfg.Logf("wire-serve route: post-drain repair: %v", rerr)
	} else {
		moved += n
	}
	ms.beginGrace()
	ms.cfg.Logf("wire-serve route: drained %s: %d session(s) moved, ring now %v (epoch %d)", name, moved, names, epoch)
	return &DrainResult{Shard: name, Epoch: epoch, SessionsMoved: moved}, nil
}

// join adds sh to the ring — a brand-new shard, a drained one returning, or
// a restarted one rejoining by name after a death failover. Only the
// minimally-remapped key ranges migrate: each serving member exports the
// sessions whose post-join resolution moves. A rejoining-after-failure
// member keeps its adopter pointer until commit, so its sessions stay
// routable (at the adopter) throughout the migration back.
func (ms *membership) join(ctx context.Context, sh Shard) (*JoinResult, error) {
	if sh.Name == "" || sh.URL == "" || sh.JournalDir == "" {
		return nil, opErrorf(http.StatusBadRequest, "join: name, url, and journal_dir are all required")
	}
	if !ms.opMu.TryLock() {
		return nil, opErrorf(http.StatusConflict, "another topology operation is in progress; retry")
	}
	defer ms.opMu.Unlock()
	ms.opActive.Store(true)
	defer ms.opActive.Store(false)

	// The newcomer must be reachable before anything moves toward it. A
	// member rejoining at its recorded URL keeps its client.
	ms.mu.Lock()
	var api *service.Client
	if m := ms.members[sh.Name]; m != nil && m.shard.URL == sh.URL {
		api = m.api
	}
	ms.mu.Unlock()
	if api == nil {
		api = ms.newAPI(sh.URL)
	}
	if _, err := withTimeout(ctx, ms.cfg.HeartbeatTimeout, api.Ready); err != nil {
		return nil, opErrorf(http.StatusBadGateway, "join %s: shard not healthy: %v", sh.Name, err)
	}

	ms.mu.Lock()
	onRing := false
	for _, n2 := range ms.ringNames {
		if n2 == sh.Name {
			onRing = true
			break
		}
	}
	// A partitioned member (or one mid-confirmation) cannot be enumerated
	// as a migration donor, yet it may host sessions whose routing depends
	// on the adopter chain or ring assignment this join is about to change
	// — flipping a rejoiner to serving would orphan them (routed to a shard
	// that fenced them away, answered with 404s). Partitions are transient:
	// defer the join and let the auto-rejoin retry after the link heals. A
	// partition that never heals escalates to a real failover, which also
	// unblocks this path.
	for n2, m := range ms.members {
		if m.state == memberPartitioned || m.confirming {
			ms.mu.Unlock()
			return nil, opErrorf(http.StatusServiceUnavailable,
				"join %s deferred: shard %s is partitioned from the router; its hosted sessions cannot be rebalanced until the link heals", sh.Name, n2)
		}
	}
	existing := ms.members[sh.Name]
	rejoined := false
	var prevState memberState
	switch {
	case existing == nil:
		ms.members[sh.Name] = &member{shard: sh, api: api, state: memberJoining}
		ms.order = append(ms.order, sh.Name)
	case existing.state == memberLeft || existing.state == memberFailed:
		prevState = existing.state
		existing.shard, existing.api = sh, api
		existing.state = memberJoining
		existing.misses = 0
		// A failed member's adopter pointer survives until commit: its
		// sessions still live on the adopter and must stay routable while
		// they migrate back.
		rejoined = true
	case existing.state == memberUp && !onRing:
		// Up but absent from the ring: a spurious death declaration revived
		// the member after an interrupted drain or join already swapped (or
		// never committed) the ring without it. Joining it again is pure
		// repair — the same minimal-migration path puts it back on the ring.
		prevState = existing.state
		existing.shard, existing.api = sh, api
		existing.state = memberJoining
		existing.misses = 0
		rejoined = true
	case existing.state == memberRecovering && !ms.anyUpLocked():
		// Cluster-down bootstrap: every member is dead or dying, so the
		// failover engine has no adopter to hand this member's sessions to
		// and would otherwise hold it in recovering forever. A restarted
		// process rejoining by name is the only way back; the member's
		// failover goroutine observes the state change and stands down.
		prevState = existing.state
		existing.shard, existing.api = sh, api
		existing.state = memberJoining
		existing.misses = 0
		rejoined = true
	default:
		st := existing.state
		ms.mu.Unlock()
		return nil, opErrorf(http.StatusConflict, "shard %s is %s; only an unknown, left, or failed shard can join", sh.Name, st)
	}
	ms.epoch++
	epoch := ms.epoch
	names := ms.ringNames
	if !onRing {
		names = append(append([]string(nil), ms.ringNames...), sh.Name)
	}
	curRing := ms.ring
	ms.mu.Unlock()

	revert := func() {
		ms.mu.Lock()
		respawn := false
		if mm := ms.members[sh.Name]; mm != nil && mm.state == memberJoining {
			if existing == nil {
				delete(ms.members, sh.Name)
				for i, n2 := range ms.order {
					if n2 == sh.Name {
						ms.order = append(ms.order[:i], ms.order[i+1:]...)
						break
					}
				}
			} else {
				mm.state = prevState
				// A member returned to recovering must again have a
				// failover goroutine owning it — the previous one stood
				// down when the join flipped the state.
				respawn = prevState == memberRecovering
			}
		}
		ms.mu.Unlock()
		if respawn {
			go ms.failover(ms.opCtx(), sh.Name)
		}
	}

	ring2 := curRing
	if !onRing {
		var err error
		if ring2, err = NewRing(names, ms.cfg.VNodes); err != nil {
			revert()
			return nil, opErrorf(http.StatusInternalServerError, "join %s: rebuilding ring: %v", sh.Name, err)
		}
	}
	fv := &finalView{
		ring:     ring2,
		states:   map[string]memberState{sh.Name: memberUp},
		adopters: map[string]string{sh.Name: ""},
	}

	// Every serving member is a potential donor; which sessions move is
	// decided per session against the final view.
	ms.mu.Lock()
	donors := make([]peer, 0, len(ms.order))
	for _, n2 := range ms.order {
		if n2 == sh.Name {
			continue
		}
		if m := ms.members[n2]; m != nil && m.state.serving() {
			donors = append(donors, m.peer())
		}
	}
	ms.mu.Unlock()

	moved := 0
	for _, d := range donors {
		ids, err := withTimeout(ctx, ms.cfg.AdoptTimeout, d.api.ListSessions)
		if err != nil {
			// A donor dying mid-join is the failover path's problem; its
			// sessions will resurface on an adopter and the repair pass (or
			// a retried join) moves them then.
			ms.cfg.Logf("wire-serve route: join %s: listing %s: %v; skipping donor", sh.Name, d.Name, err)
			continue
		}
		var move []string
		ms.mu.Lock()
		for _, id := range ids {
			if ms.migrating[id] {
				continue
			}
			if t, ok := ms.finalTargetLocked(fv, id); ok && t.Name != d.Name {
				move = append(move, id)
			}
		}
		ms.mu.Unlock()
		n, err := ms.migrate(ctx, d, move, fv, epoch)
		moved += n
		if err != nil {
			if moved == 0 && errors.Is(err, errMigrateRolledBack) {
				// Nothing landed anywhere and the donor holds everything
				// again: the join is a clean no-op, so undo the state flip
				// and let a retry start fresh.
				revert()
			}
			return nil, opErrorf(http.StatusBadGateway, "join %s: %v", sh.Name, err)
		}
	}

	ms.mu.Lock()
	if mm := ms.members[sh.Name]; mm != nil && mm.state == memberJoining {
		mm.state = memberUp
		mm.adopter = ""
		mm.misses = 0
	}
	ms.ring = ring2
	ms.ringNames = names
	ms.compactOverridesLocked()
	ms.mu.Unlock()
	ms.joins.Add(1)
	ms.beginGrace()

	if n, rerr := ms.repair(ctx, epoch); rerr != nil {
		ms.cfg.Logf("wire-serve route: post-join repair: %v", rerr)
	} else {
		moved += n
	}
	ms.beginGrace()
	ms.cfg.Logf("wire-serve route: joined %s (rejoin=%v): %d session(s) moved, ring now %v (epoch %d)", sh.Name, rejoined, moved, names, epoch)
	return &JoinResult{Shard: sh.Name, Epoch: epoch, Rejoined: rejoined, SessionsMoved: moved}, nil
}

// repair re-lists every serving member and migrates any session hosted away
// from its current resolution — strays from the op's racing window (creates
// placed under the old ring, failover adoptions that landed mid-op). It
// loops until a pass finds none (bounded).
func (ms *membership) repair(ctx context.Context, epoch int64) (int, error) {
	total := 0
	for pass := 0; pass < 5; pass++ {
		ms.mu.Lock()
		hosts := make([]peer, 0, len(ms.order))
		for _, name := range ms.order {
			if m := ms.members[name]; m != nil && m.state.serving() {
				hosts = append(hosts, m.peer())
			}
		}
		ms.mu.Unlock()
		strays := 0
		for _, h := range hosts {
			ids, err := withTimeout(ctx, ms.cfg.AdoptTimeout, h.api.ListSessions)
			if err != nil {
				ms.cfg.Logf("wire-serve route: repair: listing %s: %v; skipping", h.Name, err)
				continue
			}
			var move []string
			ms.mu.Lock()
			for _, id := range ids {
				if ms.migrating[id] {
					continue
				}
				if sh, st := ms.resolveSessionLocked(id); st == routeOK && sh.Name != h.Name {
					move = append(move, id)
				}
			}
			ms.mu.Unlock()
			if len(move) == 0 {
				continue
			}
			strays += len(move)
			n, err := ms.migrate(ctx, h, move, nil, epoch)
			total += n
			if err != nil {
				return total, err
			}
			ms.mu.Lock()
			ms.compactOverridesLocked()
			ms.mu.Unlock()
		}
		if strays == 0 {
			return total, nil
		}
	}
	return total, nil
}

// compactOverridesLocked drops override entries the ring resolution now
// agrees with (after an op's ring swap the moved sessions' ring owners ARE
// their override targets, so the overrides are redundant).
func (ms *membership) compactOverridesLocked() {
	for id, name := range ms.overrides {
		osh, ost := ms.followLocked(name)
		rsh, rst := ms.followLocked(ms.ring.Owner(id))
		if ost == routeOK && rst == routeOK && osh.Name == rsh.Name {
			delete(ms.overrides, id)
		}
	}
}

// anyUpLocked reports whether any member is fully up. Caller holds ms.mu.
func (ms *membership) anyUpLocked() bool {
	for _, m := range ms.members {
		if m.state == memberUp {
			return true
		}
	}
	return false
}
