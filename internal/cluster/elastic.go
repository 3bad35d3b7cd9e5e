package cluster

// Elastic membership operations: graceful drain, join-time rebalancing, and
// rejoin-by-name.
//
// Every topology change is one operation, runOp, in six steps:
//
//  1. Admit: one op at a time (a concurrent request gets 409), then the op's
//     own check under the table lock. A member a failed drain left draining,
//     or a failed join left joining at the same URL, is admitted again: that
//     is the retry.
//  2. Move the subject to its transitional state (draining, joining) and take
//     a fresh fencing epoch, on a retry too. A draining member takes no
//     creates, so this changes placement: it waits for the creates placed
//     before it to reach their shards (membership.creates), and the listing
//     in step 4 sees them.
//  3. Build the FINAL view: the ring as it will be after the op, the member
//     that is leaving it and the adopter re-points the op will commit.
//  4. Rebalance: list each donor (the drain subject; for a join, every other
//     serving member) and move the sessions that must move: mark them
//     migrating (requests 503 + retry), export from the donor (detach + close
//     WAL), adopt on the final-view target (fenced copy + replay), and record
//     a routing override so each is servable before the ring swap.
//  5. Commit under the lock: the subject's final state, the final ring and
//     re-points; compact overrides the new ring now agrees with. The ring
//     swap waits for creates as step 2 does, so a session created under the
//     old ring is on its shard when step 6 lists it.
//  6. Repair: rebalance every serving member against the current table to
//     move any stray the racing window let through (creates placed under the
//     old ring, failover adoptions landing mid-op), until a pass finds none.
//
// An op that fails in step 4 (donor died, export lost, router shutting down)
// leaves a consistent cluster: moved sessions answer at their targets via
// overrides, unmoved ones via the old ring — and a donor that died keeps its
// exported WALs on disk where the death-failover path will find them. The
// op's revert rule decides whether the subject goes back; otherwise it stays
// transitional until the request is run again.

import (
	"context"
	"errors"
	"fmt"
	"net/http"
	"path/filepath"
	"slices"
	"strings"
	"sync/atomic"
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
// resolves migration targets against (see followLocked): the post-op ring,
// the member the op takes off it, and the adopter re-points it will commit.
type finalView struct {
	ring *Ring
	// leaving is a drain's subject: targets must avoid it even while it
	// still serves.
	leaving  string
	adopters map[string]string
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
	exp, err := withTimeout(ctx, adoptTimeout, func(ctx context.Context) (*service.ExportResponse, error) {
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
			if sh, st := ms.placeLocked(id, fv); st == routeOK {
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
// member about to drain out): each is re-pointed at its successor, skipping
// avoid. The drain migration then moves those sessions to exactly that
// member, keeping the single-pointer model consistent.
func (ms *membership) repointsLocked(avoid string) (map[string]string, error) {
	rp := make(map[string]string)
	for name, m := range ms.members {
		if m.state != memberFailed {
			continue
		}
		if sh, st := ms.followLocked(name, nil); st != routeOK || sh.Name != avoid {
			continue
		}
		target, err := ms.successorLocked(name, avoid)
		if err != nil {
			return nil, err
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
	ms.graceUntil = time.Now().Add(d)
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
	return time.Now().Before(ms.graceUntil)
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
	sh, st := ms.resolveSession(id)
	return st != routeOK || sh.Name != askedShard
}

// topoOp is one topology change as its admission planned it: the parts of a
// drain or a join that differ. runOp is everything they share.
type topoOp struct {
	verb    string // "drain" or "join", for errors and logs
	subject string
	// names is the ring membership after the op; view.ring is built from it.
	names   []string
	view    finalView
	donors  []peer
	counter *atomic.Int64
	// enter moves the subject to its transitional state; commit installs its
	// final state after a full rebalance. Both run under ms.mu.
	enter  func()
	commit func()
	// revert runs after a failed rebalance and undoes enter when the op's
	// rule says the cluster is as it was before.
	revert func(moved int, err error)
}

// runOp runs one topology change (see the file comment for its steps):
// admit runs under the table lock and refuses the op or plans it.
func (ms *membership) runOp(ctx context.Context, admit func() (*topoOp, error)) (epoch int64, moved int, err error) {
	if !ms.opMu.TryLock() {
		return 0, 0, opErrorf(http.StatusConflict, "another topology operation is in progress; retry")
	}
	defer ms.opMu.Unlock()
	ms.opActive.Store(true)
	defer ms.opActive.Store(false)

	ms.creates.Lock()
	ms.mu.Lock()
	op, err := admit()
	if err == nil {
		if op.view.ring, err = NewRing(op.names, DefaultVNodes); err != nil {
			err = opErrorf(http.StatusInternalServerError, "%s %s: rebuilding ring: %v", op.verb, op.subject, err)
		}
	}
	if err == nil {
		op.enter()
		ms.epoch++
		epoch = ms.epoch
	}
	ms.mu.Unlock()
	ms.creates.Unlock()
	if err != nil {
		return 0, 0, err
	}

	if _, moved, err = ms.rebalance(ctx, op.verb, op.donors, &op.view, epoch); err != nil {
		op.revert(moved, err)
		return 0, 0, opErrorf(http.StatusBadGateway, "%s %s: %v", op.verb, op.subject, err)
	}

	ms.creates.Lock()
	ms.mu.Lock()
	op.commit()
	ms.ring = op.view.ring
	ms.ringNames = op.names
	ms.compactOverridesLocked()
	ms.mu.Unlock()
	ms.creates.Unlock()
	op.counter.Add(1)
	ms.beginGrace()

	if n, rerr := ms.repair(ctx, epoch); rerr != nil {
		ms.cfg.Logf("wire-serve route: post-%s repair: %v", op.verb, rerr)
	} else {
		moved += n
	}
	ms.beginGrace()
	ms.cfg.Logf("wire-serve route: %s %s done: %d session(s) moved, ring now %v (epoch %d)", op.verb, op.subject, moved, op.names, epoch)
	return epoch, moved, nil
}

// errUnlisted marks a leaving donor the op could not list: nothing moved.
var errUnlisted = errors.New("cluster: donor could not be listed")

// rebalance lists each donor's sessions and migrates the ones that must move
// at epoch. A donor leaving under fv moves every session it lists, and one
// that cannot be listed fails the op. Any other donor moves only the
// sessions whose target under fv (the current table when fv is nil)
// resolves to another member, leaves those already mid-migration alone, and
// is skipped when it cannot be listed — if it died, its sessions resurface
// on an adopter for the repair pass or a retried op. It returns how many
// sessions it picked and how many moved.
func (ms *membership) rebalance(ctx context.Context, verb string, donors []peer, fv *finalView, epoch int64) (picked, moved int, err error) {
	for _, d := range donors {
		moveAll := fv != nil && fv.leaving == d.Name
		ids, err := withTimeout(ctx, adoptTimeout, d.api.ListSessions)
		if err != nil {
			if moveAll {
				return picked, moved, fmt.Errorf("listing sessions on %s: %v: %w", d.Name, err, errUnlisted)
			}
			ms.cfg.Logf("wire-serve route: %s: listing %s: %v; skipping donor", verb, d.Name, err)
			continue
		}
		move := ids
		if !moveAll {
			move = nil
			ms.mu.Lock()
			for _, id := range ids {
				if ms.migrating[id] {
					continue
				}
				if t, st := ms.placeLocked(id, fv); st == routeOK && t.Name != d.Name {
					move = append(move, id)
				}
			}
			ms.mu.Unlock()
		}
		picked += len(move)
		n, err := ms.migrate(ctx, d, move, fv, epoch)
		moved += n
		if err != nil {
			return picked, moved, err
		}
	}
	return picked, moved, nil
}

// repair rebalances every serving member against the current table: any
// session hosted away from its resolution is a stray from the op's racing
// window. It repeats until a pass finds none (at most five passes).
func (ms *membership) repair(ctx context.Context, epoch int64) (int, error) {
	total := 0
	for pass := 0; pass < 5; pass++ {
		ms.mu.Lock()
		hosts := ms.peersLocked(memberState.serving, "")
		ms.mu.Unlock()
		strays, n, err := ms.rebalance(ctx, "repair", hosts, nil, epoch)
		total += n
		ms.mu.Lock()
		ms.compactOverridesLocked()
		ms.mu.Unlock()
		if err != nil || strays == 0 {
			return total, err
		}
	}
	return total, nil
}

// drain gracefully decommissions a shard: new sessions stop landing on it,
// every session it hosts migrates to its post-drain owner, and the member
// leaves the ring. The shard process itself stays up throughout — it is the
// donor — and can be stopped once drain returns.
func (ms *membership) drain(ctx context.Context, name string) (*DrainResult, error) {
	admit := func() (*topoOp, error) {
		m := ms.members[name]
		if m == nil {
			return nil, opErrorf(http.StatusNotFound, "unknown shard %q", name)
		}
		// A drain that failed mid-rebalance left its member draining; running
		// it again finishes the job.
		if m.state != memberUp && m.state != memberDraining {
			return nil, opErrorf(http.StatusConflict, "shard %s is %s; only an up or draining shard can drain", name, m.state)
		}
		if len(ms.peersLocked(memberState.up, name)) == 0 {
			return nil, opErrorf(http.StatusConflict, "cannot drain %s: it is the last live shard", name)
		}
		rp, err := ms.repointsLocked(name)
		if err != nil {
			return nil, opErrorf(http.StatusConflict, "drain %s: %v", name, err)
		}
		names := slices.DeleteFunc(slices.Clone(ms.ringNames), func(n string) bool { return n == name })
		return &topoOp{
			verb: "drain", subject: name, names: names,
			view:    finalView{leaving: name, adopters: rp},
			donors:  []peer{m.peer()},
			counter: &ms.drains,
			enter:   func() { m.state = memberDraining },
			commit: func() {
				if m.state == memberDraining {
					m.state = memberLeft
					m.adopter = ""
					m.misses = 0
				}
				for f, a := range rp {
					ms.members[f].adopter = a
				}
			},
			revert: func(_ int, err error) {
				// Everything un-moved is hosted by the donor again (or never
				// left it): return it to full service; moved sessions stay with
				// their adopters via overrides. After any other failure (export
				// lost, donor died) it stays draining: the prober owns it like
				// any serving member, so a death falls back to failover, and a
				// retried drain moves what is left.
				if !errors.Is(err, errMigrateRolledBack) && !errors.Is(err, errUnlisted) {
					return
				}
				ms.mu.Lock()
				if m.state == memberDraining {
					m.state = memberUp
				}
				ms.mu.Unlock()
			},
		}, nil
	}
	epoch, moved, err := ms.runOp(ctx, admit)
	if err != nil {
		return nil, err
	}
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
	// The newcomer must be reachable before anything moves toward it. A
	// member rejoining at its recorded URL keeps its client.
	var api *service.Client
	ms.mu.Lock()
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
	rejoined := false
	admit := func() (*topoOp, error) {
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
				return nil, opErrorf(http.StatusServiceUnavailable,
					"join %s deferred: shard %s is partitioned from the router; its hosted sessions cannot be rebalanced until the link heals", sh.Name, n2)
			}
		}
		onRing := slices.Contains(ms.ringNames, sh.Name)
		existing := ms.members[sh.Name]
		var prevState memberState
		if existing != nil {
			prevState = existing.state
			switch {
			case prevState == memberLeft || prevState == memberFailed:
				// A failed member's adopter pointer survives until commit: its
				// sessions still live on the adopter and must stay routable
				// while they migrate back.
			case prevState == memberUp && !onRing:
				// Up but absent from the ring: a spurious death declaration
				// revived the member after an interrupted drain or join already
				// swapped (or never committed) the ring without it. Joining it
				// again is pure repair — the same minimal-migration path puts it
				// back on the ring.
			case prevState == memberRecovering && len(ms.peersLocked(memberState.up, "")) == 0:
				// Cluster-down bootstrap: every member is dead or dying, so the
				// failover engine has no adopter to hand this member's sessions
				// to and would otherwise hold it in recovering forever. A
				// restarted process rejoining by name is the only way back; the
				// member's failover goroutine observes the state change and
				// stands down.
			case prevState == memberJoining && existing.shard.URL == sh.URL:
				// A join that failed mid-rebalance left the member joining;
				// running it again finishes the job.
			default:
				return nil, opErrorf(http.StatusConflict, "shard %s is %s; only an unknown, left, or failed shard (or one whose join failed) can join", sh.Name, prevState)
			}
		}
		rejoined = existing != nil
		names := ms.ringNames
		if !onRing {
			names = append(slices.Clone(ms.ringNames), sh.Name)
		}
		return &topoOp{
			verb: "join", subject: sh.Name, names: names,
			view: finalView{adopters: map[string]string{sh.Name: ""}},
			// Every serving member is a potential donor; which sessions
			// move is decided per session against the final view.
			donors:  ms.peersLocked(memberState.serving, sh.Name),
			counter: &ms.joins,
			enter: func() {
				if existing == nil {
					ms.members[sh.Name] = &member{shard: sh, api: api, state: memberJoining}
					ms.order = append(ms.order, sh.Name)
					return
				}
				existing.shard, existing.api = sh, api
				existing.state = memberJoining
				existing.misses = 0
			},
			commit: func() {
				if m := ms.members[sh.Name]; m != nil && m.state == memberJoining {
					m.state = memberUp
					m.adopter = ""
					m.misses = 0
				}
			},
			revert: func(moved int, err error) {
				// Only when nothing landed anywhere and the donors hold
				// everything again is the join a clean no-op: undo the state
				// flip and let a retry start fresh.
				if moved > 0 || !errors.Is(err, errMigrateRolledBack) {
					return
				}
				ms.mu.Lock()
				respawn := false
				if m := ms.members[sh.Name]; m != nil && m.state == memberJoining {
					if existing == nil {
						delete(ms.members, sh.Name)
						ms.order = slices.DeleteFunc(ms.order, func(n string) bool { return n == sh.Name })
					} else {
						m.state = prevState
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
			},
		}, nil
	}
	epoch, moved, err := ms.runOp(ctx, admit)
	if err != nil {
		return nil, err
	}
	return &JoinResult{Shard: sh.Name, Epoch: epoch, Rejoined: rejoined, SessionsMoved: moved}, nil
}

// compactOverridesLocked drops override entries the ring resolution now
// agrees with (after an op's ring swap the moved sessions' ring owners ARE
// their override targets, so the overrides are redundant).
func (ms *membership) compactOverridesLocked() {
	for id, name := range ms.overrides {
		osh, ost := ms.followLocked(name, nil)
		rsh, rst := ms.followLocked(ms.ring.Owner(id), nil)
		if ost == routeOK && rst == routeOK && osh.Name == rsh.Name {
			delete(ms.overrides, id)
		}
	}
}
