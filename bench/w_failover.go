package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"time"

	"repro/internal/audit"
	"repro/internal/cluster"
	"repro/internal/service"
)

// Shape of one fleet-failover cycle. The router draws session IDs at
// random, so left alone the drained and the killed shard would hold a
// different number and mix of sessions every cycle, and the cycle's timings
// would measure that draw. Populate instead creates sessions until each
// placement bucket — (hosting shard, where the ring sends the session once
// s0 is drained) × workflow — holds its quota, and deletes the surplus. The
// drain then always moves 12 sessions, 6 to each survivor, and the kill of
// s1 always orphans 24: per workflow, 2+2 on s0 and 6 on each of s1 and s2.
const (
	cycleShards    = 3
	drainShardName = "s0"
	killShardName  = "s1"
	quotaDonor     = 2 // per workflow, per destination, on s0
	quotaOther     = 6 // per workflow on s1 and on s2
	probeEvery     = 5 * time.Millisecond
	recoverTimeout = 20 * time.Second
	placeAttempts  = 2000
)

// cycleStats is what one populate → drain → kill → finish → audit cycle
// measured.
type cycleStats struct {
	planMS []float64
	// tracedMS and bareMS split the closed-loop plans (not the stalled
	// ones) by whether their session was traced.
	tracedMS, bareMS []float64

	// planWall is the wall time of the two closed-loop phases (populate and
	// finish) and plans the plans they served.
	planWall time.Duration
	plans    int

	drainMS float64
	drained int

	failoverMS float64
	detectMS   float64
	victims    int
	probeMiss  int // probes answered 502/503 while the fleet recovered

	walBytes int64 // journal bytes after populate
	popPlans int
	sessions int

	// Traced runs only: the journal directory read back two ways (see
	// measureHandoff), and the router's adopt call relative to the kill.
	adoptMSPerSession, replayMBPerS, coldReplayMSPerSession float64
	adoptStartMS, adoptEndMS                                float64

	auditRecords int
	auditWall    time.Duration
	violations   int

	recovering503 int64
	proxyErrors   int64

	// phase boundaries for the trace
	t [7]time.Time // start, populated, drained, killed, recovered, finished, audited
}

// drainShard asks the router to drain one shard and returns the sessions
// moved with the wall time of the call.
func drainShard(routerURL, name string) (moved int, took time.Duration, err error) {
	body, _ := json.Marshal(map[string]string{"shard": name})
	t0 := time.Now()
	resp, err := http.Post(routerURL+"/v1/admin/drain", "application/json", bytes.NewReader(body))
	if err != nil {
		return 0, 0, err
	}
	defer resp.Body.Close()
	b, _ := io.ReadAll(io.LimitReader(resp.Body, 1<<16))
	took = time.Since(t0)
	if resp.StatusCode != http.StatusOK {
		return 0, took, fmt.Errorf("drain %s: HTTP %d: %s", name, resp.StatusCode, b)
	}
	var res cluster.DrainResult
	if err := json.Unmarshal(b, &res); err != nil {
		return 0, took, err
	}
	return res.SessionsMoved, took, nil
}

// placeSessions creates sessions through the router until every placement
// bucket holds its quota and returns the kept ones in creation order.
func placeSessions(ctx context.Context, f *fleet, r *replayer, streams []*stream) ([]*liveSession, error) {
	var survivors []string
	for _, d := range f.shards {
		if d.name != drainShardName {
			survivors = append(survivors, d.name)
		}
	}
	after, err := cluster.NewRing(survivors, cluster.DefaultVNodes)
	if err != nil {
		return nil, err
	}
	now := f.rt.Ring()
	type bucket struct{ host, dest, key string }
	want := map[bucket]int{}
	missing := 0
	for _, key := range smallKeys {
		for _, d := range survivors {
			want[bucket{drainShardName, d, key}] = quotaDonor
			want[bucket{d, d, key}] = quotaOther
			missing += quotaDonor + quotaOther
		}
	}
	var kept []*liveSession
	for i := 0; missing > 0; i++ {
		if i == placeAttempts {
			return nil, fmt.Errorf("placement: %d bucket slot(s) still empty after %d creates", missing, i)
		}
		st := streams[i%len(streams)]
		ls, _ := r.create(ctx, st, nil, true) // no tenants, so no draw
		if ls == nil {
			continue
		}
		b := bucket{now.Owner(ls.id), after.Owner(ls.id), st.Key}
		if b.host != drainShardName {
			b.dest = b.host
		}
		if want[b] == 0 {
			r.delete(ctx, ls)
			continue
		}
		// Quotas are even: half of every bucket is traced, half bare.
		ls.traced = ls.traced && want[b]%2 == 0
		want[b]--
		missing--
		kept = append(kept, ls)
	}
	return kept, nil
}

// isRecovering reports whether err is the router saying "not yet": the
// owning shard is unreachable (502) or its journals are still being replayed
// on a peer (503).
func isRecovering(err error) (recovering bool, code string) {
	var ae *service.APIError
	if errors.As(err, &ae) && (ae.StatusCode == http.StatusBadGateway || ae.StatusCode == http.StatusServiceUnavailable) {
		return true, ae.Code
	}
	return false, ""
}

// runCycle runs one whole cycle on a fresh fleet under root.
func runCycle(root string, streams []*stream, rec *recorder, t *tally) (*cycleStats, error) {
	f, err := startFleet(fleetConfig{
		Root: root, Shards: cycleShards, Fsync: service.FsyncPerInterval,
		Heartbeat: 20 * time.Millisecond, FailAfter: 3,
	}, rec)
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(root)
	defer f.stop()

	cs := &cycleStats{}
	ctx := context.Background()
	r := &replayer{client: newClient(f.url, rec), rec: rec, tally: t}
	step := func(ls *liveSession) bool {
		took, ok := r.plan(ctx, ls)
		if ok {
			cs.planMS = append(cs.planMS, ms(took))
			cs.plans++
			if ls.traced {
				cs.tracedMS = append(cs.tracedMS, ms(took))
			} else {
				cs.bareMS = append(cs.bareMS, ms(took))
			}
		}
		return ok
	}

	// Place: create until every bucket is full (see the constants).
	sessions, err := placeSessions(ctx, f, r, streams)
	if err != nil {
		return nil, err
	}
	byID := map[string]*liveSession{}
	for _, ls := range sessions {
		byID[ls.id] = ls
	}
	cs.sessions = len(sessions)

	// Populate: every session to half its stream. Sessions stay — the
	// journals are what the rest of the cycle reads.
	cs.t[0] = time.Now()
	for _, ls := range sessions {
		for ok := true; ok && ls.next < len(ls.st.Snaps)/2; {
			ok = step(ls)
		}
	}
	cs.t[1] = time.Now()
	cs.planWall += cs.t[1].Sub(cs.t[0])
	cs.popPlans = cs.plans
	if cs.walBytes, err = dirBytes(f.dirs()...); err != nil {
		return nil, err
	}

	// Drain s0 while it serves.
	const onDonor = 2 * quotaDonor * 3 // two destinations, three workflows
	t.attempted.Add(1)
	moved, took, err := drainShard(f.url, drainShardName)
	if err != nil {
		t.fail("%v", err)
	} else if moved != onDonor {
		t.fail("drain %s moved %d sessions, placement put %d there", drainShardName, moved, onDonor)
	}
	cs.drainMS, cs.drained = ms(took), moved
	cs.t[2] = time.Now()

	// Kill s1, which now holds half of everything, with no warning.
	victim := f.shard(killShardName)
	var pending []*liveSession
	for _, id := range victim.srv.Store().IDs() {
		if ls := byID[id]; ls != nil && ls.remaining() > 0 {
			pending = append(pending, ls)
		}
	}
	sort.Slice(pending, func(i, j int) bool { return pending[i].id < pending[j].id })
	cs.victims = len(pending)
	if want := (quotaDonor + quotaOther) * 3; cs.victims != want {
		t.fail("%s holds %d sessions before the kill, placement and drain should leave %d", killShardName, cs.victims, want)
	}
	if rec != nil {
		if err := measureHandoff(cs, victim.dir, filepath.Join(root, "handoff")); err != nil {
			return nil, err
		}
	}
	killAt := time.Now()
	victim.kill()
	cs.t[3] = killAt

	// A caller that does not retry probes the victim's sessions in turn, one
	// probe every 5 ms on a fixed schedule; a session that answers is done
	// and the next is tried at once. Each stalled plan is timed from the
	// kill: that is when its caller, closed-loop, wanted it.
	t.attempted.Add(int64(len(pending)))
	lastOK := killAt
	for tick, i := 0, 0; len(pending) > 0; {
		if time.Since(killAt) > recoverTimeout {
			t.failed.Add(int64(len(pending) - 1))
			t.fail("%d victim session(s) not served %v after the kill", len(pending), recoverTimeout)
			break
		}
		i %= len(pending)
		ls := pending[i]
		_, err := r.planOnce(ctx, ls)
		now := time.Now()
		if err == nil {
			cs.planMS = append(cs.planMS, ms(now.Sub(killAt)))
			lastOK = now
			pending = append(pending[:i], pending[i+1:]...)
			continue
		}
		if rcv, code := isRecovering(err); rcv {
			cs.probeMiss++
			if code == service.CodeShardRecovering && cs.detectMS == 0 {
				cs.detectMS = ms(now.Sub(killAt))
			}
			i++
		} else {
			t.fail("victim session %s: %v", ls.id, err)
			pending = append(pending[:i], pending[i+1:]...)
		}
		tick++
		if d := time.Until(killAt.Add(time.Duration(tick) * probeEvery)); d > 0 {
			time.Sleep(d)
		}
	}
	cs.failoverMS = ms(lastOK.Sub(killAt))
	cs.t[4] = time.Now()
	if rec != nil {
		// The router's adopt request(s) to the surviving peer, on the kill's
		// clock. Earlier adopt calls belong to the drain.
		kill := killAt.Sub(rec.t0).Nanoseconds()
		for _, sp := range rec.snapshot() {
			if sp.Name != adoptCallSpan || sp.Start < kill {
				continue
			}
			if cs.adoptStartMS == 0 {
				cs.adoptStartMS = float64(sp.Start-kill) / 1e6
			}
			cs.adoptEndMS = float64(sp.End-kill) / 1e6
		}
	}

	// Finish every session on what is left of the fleet.
	for _, ls := range sessions {
		for ok := true; ok && ls.remaining() > 0; {
			ok = step(ls)
		}
	}
	cs.t[5] = time.Now()
	cs.planWall += cs.t[5].Sub(cs.t[4])

	rc := f.rt.Counters()
	cs.recovering503, cs.proxyErrors = rc.Recovering503Total, rc.ProxyErrorsTotal

	// The journals of all three shards, merged, must tell one story.
	t.attempted.Add(1)
	a0 := time.Now()
	rep, err := audit.Run(audit.Config{Dirs: f.dirs()})
	cs.auditWall = time.Since(a0)
	cs.t[6] = time.Now()
	if err != nil {
		t.fail("audit: %v", err)
	} else {
		cs.auditRecords = rep.Plans + rep.WALs
		cs.violations = len(rep.Violations)
		if rep.Sessions != len(sessions) {
			t.fail("audit saw %d sessions, %d were created", rep.Sessions, len(sessions))
		}
		for _, v := range rep.Violations {
			t.fail("audit violation %s session %s: %s", v.Check, v.Session, v.Detail)
		}
	}
	return cs, nil
}

func runFleetFailover(cfg runConfig) (*runResult, error) {
	var rec *recorder
	if cfg.Trace {
		rec = newRecorder()
	}
	streams, _, setupS, err := setupMedian(func(i int) ([]*stream, func(), error) {
		// Fleet start is part of set-up in every service workload; here a
		// fleet is started (and dropped again) only to be timed, because
		// each cycle brings its own.
		streams, err := recordStreams(cfg.Seed, smallKeys, smallPerKey)
		if err != nil {
			return nil, nil, err
		}
		f, err := startFleet(fleetConfig{Root: filepath.Join(cfg.Dir, "setup-"+strconv.Itoa(i)), Shards: cycleShards}, nil)
		if err != nil {
			return nil, nil, err
		}
		return streams, f.stop, nil
	})
	if err != nil {
		return nil, err
	}

	t := &tally{}
	var cycles []*cycleStats
	// Whole cycles until their measured phases — populate, drain, failover,
	// finish — have used up the window; placement, the audit and fleet
	// start and stop are the cycle's own set-up and checking. No warm-up
	// cycle: every number is a median over cycles, which one cold cycle
	// cannot move.
	var measured time.Duration
	p0 := readProc()
	for n := 0; measured < cfg.Window; n++ {
		cs, err := runCycle(filepath.Join(cfg.Dir, "cycle-"+strconv.Itoa(n)), streams, rec, t)
		if err != nil {
			return nil, err
		}
		cycles = append(cycles, cs)
		measured += cs.t[5].Sub(cs.t[0])
	}

	res := &runResult{Metrics: map[string]float64{}}
	var planMS, plansPerS, drainPer, failover []float64
	for _, cs := range cycles {
		planMS = append(planMS, cs.planMS...)
		plansPerS = append(plansPerS, float64(cs.plans)/cs.planWall.Seconds())
		if cs.drained > 0 {
			drainPer = append(drainPer, cs.drainMS/float64(cs.drained))
		}
		failover = append(failover, cs.failoverMS)
	}
	if len(planMS) == 0 || len(drainPer) == 0 {
		return nil, fmt.Errorf("fleet-failover: no cycle completed: %v", t.errs)
	}
	lat := summarize(planMS, tailNominal[cfg.Workload])
	if cfg.Trace {
		for _, cs := range cycles {
			res.note("cycle: populate %.0f  drain %.0f (%d sessions)  kill to last victim %.0f (first 503 at %.0f, %d victims, %d probes refused)  finish %.0f  audit %.0f ms; journals %.1f MB",
				ms(cs.t[1].Sub(cs.t[0])), cs.drainMS, cs.drained, cs.failoverMS, cs.detectMS, cs.victims, cs.probeMiss,
				ms(cs.t[5].Sub(cs.t[4])), ms(cs.auditWall), float64(cs.walBytes)/1e6)
			for i, name := range []string{"cycle.populate", "cycle.drain", "cycle.pre_kill", "cycle.failover", "cycle.finish", "cycle.audit"} {
				rec.add(name, cs.t[i], cs.t[i+1])
			}
		}
		procLayers(res.Metrics, p0, readProc(), len(planMS))
		if err := traceFailover(cfg, cycles, rec, res); err != nil {
			return nil, err
		}
	} else {
		res.Metrics["setup_s"] = setupS
		res.Metrics["plans_per_s"] = median(plansPerS)
		res.Metrics["plan_p50_ms"] = lat.P50
		res.Metrics["plan_p99_ms"] = lat.Tail
		res.Metrics["ms_per_session"] = median(drainPer)
	}
	res.note("cycles %d  plans %d (tail = p%g)  failover_ms median %.1f  drain ms/session median %.2f  victims/cycle %d",
		len(cycles), lat.N, lat.TailPct, median(failover), median(drainPer), cycles[0].victims)
	res.Attempted, res.Failed, res.Errs = t.attempted.Load(), t.failed.Load(), t.errs
	return res, nil
}
