package scenario

import (
	"context"
	"fmt"
	"strings"
	"time"

	"repro/internal/chaos"
	"repro/internal/cluster"
)

// Fault-driver timing. Like the fleet's, these were options nobody set.
const (
	// rollingDelay is the pause between a shard's rejoin and the next shard's
	// drain.
	rollingDelay = 100 * time.Millisecond
	// churnMinGap and churnMaxGap bound the gaps between churn events.
	churnMinGap = 100 * time.Millisecond
	churnMaxGap = 400 * time.Millisecond
	// partitionMinGap and partitionMaxGap bound the gaps between nemesis
	// events; partitionMinDur and partitionMaxDur bound each event's hold —
	// long enough to cross the router's confirmation threshold even on a slow
	// -race run, short enough to heal well inside the client retry budget.
	partitionMinGap = 200 * time.Millisecond
	partitionMaxGap = 500 * time.Millisecond
	partitionMinDur = 1200 * time.Millisecond
	partitionMaxDur = 1800 * time.Millisecond
	// slowMaxDelay bounds the seeded per-request delay on slow-link events:
	// well under the router's probe timeout, so a slow link degrades latency
	// without tripping failover.
	slowMaxDelay = 250 * time.Millisecond
)

// runFaults runs the configured fault driver beside the sessions, folding
// what it did into res, and returns when its schedule is complete — the
// rolling, churn and partition certificates require the full cycle even when
// the sessions outpace it. sessionsDone closes when the last session ends.
func (cfg *Config) runFaults(ctx context.Context, f *fleet, res *Result, sessionsDone <-chan struct{}, logf func(string, ...any)) error {
	switch {
	case cfg.Partition != nil:
		return partitionDriver(ctx, cfg, f, res, logf)
	case cfg.RollingRestart:
		return rollingRestartDriver(ctx, f, res, logf)
	case cfg.ChurnEvents > 0:
		return churnDriver(ctx, cfg, f, res, logf)
	case cfg.KillAfterPlans > 0:
		return killDriver(cfg, f, res, sessionsDone, logf)
	}
	return nil
}

// killDriver kills one seeded victim on its own progress: once it has served
// KillAfterPlans plans plus a seeded jitter of up to as many again and hosts a
// session right now, so the run has work left that only recovery can finish.
// A timer instead races the sessions, which a faster plan path wins. If the
// sessions finish first the run is certified without the kill.
func killDriver(cfg *Config, f *fleet, res *Result, sessionsDone <-chan struct{}, logf func(string, ...any)) error {
	victim, jitter := chaos.Plan{Seed: cfg.Seed}.ShardKillSchedule(len(f.daemons), cfg.KillAfterPlans)
	killAt := int64(cfg.KillAfterPlans + jitter)
	d := f.daemons[victim]
	tick := time.NewTicker(2 * time.Millisecond)
	defer tick.Stop()
	for {
		select {
		case <-sessionsDone:
			return nil
		case <-tick.C:
			srv := d.server()
			served, hosted := srv.Metrics().Served("plan"), srv.Store().Len()
			if served < killAt || hosted == 0 {
				continue
			}
			sh, _ := d.current()
			res.Killed, res.Victim = true, sh.Name
			logf("scenario: killing %s at %s (abrupt, no drain; %d plan(s) served, %d session(s) aboard)", sh.Name, sh.URL, served, hosted)
			return f.kill(victim, logf)
		}
	}
}

// adminWithRetry repeats a router admin operation until it lands. Transient
// 409s are part of normal operation: a just-killed shard's membership entry
// passes through recovering (join refused) before failover completes and
// rejoin-by-name becomes possible; an auto-rejoin may hold the topology-op
// lock, or a drain's target may momentarily be joining/recovering after a
// heartbeat flap. They resolve within a few probe rounds. A refusal containing
// settled means someone else already got the fleet there.
func adminWithRetry(ctx context.Context, what, settled string, op func() error, logf func(string, ...any)) error {
	var last error
	for i := 0; i < 200; i++ {
		if err := ctx.Err(); err != nil {
			return err
		}
		if last = op(); last == nil || strings.Contains(last.Error(), settled) {
			return nil
		}
		logf("scenario: %s: %v; retrying", what, last)
		time.Sleep(50 * time.Millisecond)
	}
	return fmt.Errorf("%s: %w", what, last)
}

// joinWithRetry joins sh; a member already up was joined by a concurrent join
// (e.g. the churn schedule's own).
func joinWithRetry(ctx context.Context, routerURL string, sh cluster.Shard, logf func(string, ...any)) error {
	return adminWithRetry(ctx, "join "+sh.Name, "is up;", func() error {
		_, err := cluster.Join(ctx, routerURL, sh)
		return err
	}, logf)
}

// drainWithRetry drains the named shard; a target that already left the ring
// counts as drained.
func drainWithRetry(ctx context.Context, routerURL, name string, logf func(string, ...any)) error {
	return adminWithRetry(ctx, "drain "+name, "is left;", func() error {
		_, err := cluster.Drain(ctx, routerURL, name)
		return err
	}, logf)
}

// waitShardsUp polls the router until shards_up reaches the full fleet.
func waitShardsUp(ctx context.Context, f *fleet, timeout time.Duration) error {
	want := len(f.daemons)
	deadline := time.Now().Add(timeout)
	for time.Now().Before(deadline) {
		if err := ctx.Err(); err != nil {
			return err
		}
		if f.rt.Counters().ShardsUp >= want {
			return nil
		}
		time.Sleep(20 * time.Millisecond)
	}
	return fmt.Errorf("shards_up did not reach %d within %v (at %d)", want, timeout, f.rt.Counters().ShardsUp)
}

// partitionEvents is how many nemesis events a spec schedules.
func partitionEvents(spec *PartitionSpec) int {
	if n := len(spec.Kinds); n > 0 {
		return n
	}
	if spec.Events > 0 {
		return spec.Events
	}
	return 3
}

// partitionDriver realizes the nemesis schedule: per event it injects the
// link fault, holds it for the event's duration, heals, and moves on; after
// the last event it waits for the fleet to return to full strength (healed
// links re-answer probes; a split's fenced victim auto-rejoins).
func partitionDriver(ctx context.Context, cfg *Config, f *fleet, res *Result, logf func(string, ...any)) error {
	plan := chaos.Plan{Seed: cfg.Seed}
	n := len(f.daemons)
	var events []chaos.PartitionEvent
	if len(cfg.Partition.Kinds) > 0 {
		events = plan.PartitionScheduleKinds(cfg.Partition.Kinds, n, partitionMinGap, partitionMaxGap, partitionMinDur, partitionMaxDur)
	} else {
		events = plan.PartitionSchedule(n, partitionEvents(cfg.Partition), partitionMinGap, partitionMaxGap, partitionMinDur, partitionMaxDur)
	}
	// Hold the schedule until the fleet actually hosts sessions: the event
	// offsets are relative to load being present, not to fleet boot, so the
	// first fault cannot outrun the sessions' warm-up (mirrors the
	// hosted-session gate on the kill driver).
	gate := time.NewTicker(5 * time.Millisecond)
	defer gate.Stop()
	for {
		hosted := 0
		for _, d := range f.daemons {
			if _, down := d.current(); !down {
				hosted += d.server().Store().Len()
			}
		}
		if hosted > 0 {
			break
		}
		select {
		case <-ctx.Done():
			return ctx.Err()
		case <-gate.C:
		}
	}
	start := time.Now()
	for _, ev := range events {
		if d := time.Until(start.Add(ev.At)); d > 0 {
			select {
			case <-ctx.Done():
				return ctx.Err()
			case <-time.After(d):
			}
		}
		victim, _ := f.daemons[ev.Shard].current()
		switch ev.Kind {
		case chaos.PartitionSplit:
			// The victim alone on one side; router and every peer on the
			// other. Peers can't vouch for it → it is fenced and failed
			// over; after the heal it comes back fenced-stale and rejoins.
			others := []string{"router"}
			for i, d := range f.daemons {
				if i != ev.Shard {
					others = append(others, d.name)
				}
			}
			logf("scenario: partition: splitting %s from {%s} for %v", victim.Name, strings.Join(others, ","), ev.Duration)
			f.network.Partition([]string{victim.Name}, others)
		case chaos.PartitionOneWay:
			// Router loses the victim but the peers still reach it → the
			// router suspects a partition, withholds failover, and answers
			// its sessions 503 shard_partitioned until the heal.
			logf("scenario: partition: cutting router->%s (one-way) for %v", victim.Name, ev.Duration)
			f.network.Cut("router", victim.Name)
		case chaos.PartitionSlow:
			logf("scenario: partition: slowing router->%s (<=%v/request) for %v", victim.Name, slowMaxDelay, ev.Duration)
			f.network.Slow("router", victim.Name, slowMaxDelay, 0.5)
		}
		select {
		case <-ctx.Done():
			return ctx.Err()
		case <-time.After(ev.Duration):
		}
		f.network.Heal()
		res.PartitionsApplied++
		logf("scenario: partition: healed %s (%s)", victim.Name, ev.Kind)
	}
	logf("scenario: partition: schedule applied; waiting for full strength")
	return waitShardsUp(ctx, f, 60*time.Second)
}

// rollingRestartDriver drains, restarts, and rejoins every shard in
// sequence: the in-process form of a rolling fleet upgrade. Each shard's
// sessions migrate off gracefully, the process is torn down and a fresh one
// started on the same journal directory (and a new port), and a join pulls
// its minimally-remapped key ranges back. The driver returns only when
// shards_up is back to the full fleet size.
func rollingRestartDriver(ctx context.Context, f *fleet, res *Result, logf func(string, ...any)) error {
	for _, d := range f.daemons {
		if err := ctx.Err(); err != nil {
			return err
		}
		logf("scenario: rolling restart: draining %s", d.name)
		if err := drainWithRetry(ctx, f.url, d.name, logf); err != nil {
			return err
		}
		d.stop()
		if err := d.start("127.0.0.1:0"); err != nil {
			return fmt.Errorf("restart %s: %w", d.name, err)
		}
		sh, _ := d.current()
		logf("scenario: rolling restart: rejoining %s at %s", sh.Name, sh.URL)
		if err := joinWithRetry(ctx, f.url, sh, logf); err != nil {
			return err
		}
		if err := waitShardsUp(ctx, f, 30*time.Second); err != nil {
			return fmt.Errorf("after rejoining %s: %w", sh.Name, err)
		}
		res.Restarted = append(res.Restarted, sh.Name)
		time.Sleep(rollingDelay)
	}
	return nil
}

// churnDriver applies a seeded schedule of kill/drain/join events
// best-effort — a drain refused because the shard is already dead, or a
// join refused because it is still failing over, is itself a wanted
// interleaving — then heals the fleet (restart + rejoin every down shard)
// and waits for full strength.
func churnDriver(ctx context.Context, cfg *Config, f *fleet, res *Result, logf func(string, ...any)) error {
	schedule := chaos.Plan{Seed: cfg.Seed}.ChurnSchedule(len(f.daemons), cfg.ChurnEvents, churnMinGap, churnMaxGap)
	start := time.Now()
	for _, ev := range schedule {
		if d := time.Until(start.Add(ev.At)); d > 0 {
			select {
			case <-ctx.Done():
				return ctx.Err()
			case <-time.After(d):
			}
		}
		d := f.daemons[ev.Shard]
		sh, down := d.current()
		res.ChurnApplied++
		switch ev.Action {
		case chaos.ChurnKill:
			if down {
				logf("scenario: churn: kill %s: already down", sh.Name)
				continue
			}
			logf("scenario: churn: killing %s", sh.Name)
			d.stop()
		case chaos.ChurnDrain:
			logf("scenario: churn: draining %s", sh.Name)
			// Async on purpose: a kill landing mid-drain is one of the
			// interleavings this certificate exists to exercise.
			go func() {
				if _, err := cluster.Drain(ctx, f.url, sh.Name); err != nil {
					logf("scenario: churn: drain %s: %v", sh.Name, err)
				}
			}()
		case chaos.ChurnJoin:
			if !down {
				// Live shard: a join is a no-op interleaving unless it had
				// drained out, in which case rejoin it.
				go func() {
					if _, err := cluster.Join(ctx, f.url, sh); err != nil {
						logf("scenario: churn: join %s: %v", sh.Name, err)
					}
				}()
				continue
			}
			if err := d.start("127.0.0.1:0"); err != nil {
				return fmt.Errorf("churn: restart %s: %w", sh.Name, err)
			}
			nsh, _ := d.current()
			logf("scenario: churn: restarting and joining %s at %s", nsh.Name, nsh.URL)
			go func() {
				if err := joinWithRetry(ctx, f.url, nsh, logf); err != nil {
					logf("scenario: churn: %v", err)
				}
			}()
		}
	}
	// Heal: bring every down shard back and rejoin until full strength.
	logf("scenario: churn: schedule applied; healing the fleet")
	deadline := time.Now().Add(60 * time.Second)
	for time.Now().Before(deadline) {
		if err := ctx.Err(); err != nil {
			return err
		}
		if f.rt.Counters().ShardsUp >= len(f.daemons) {
			return nil
		}
		for _, d := range f.daemons {
			sh, down := d.current()
			if down {
				if err := d.start("127.0.0.1:0"); err != nil {
					return fmt.Errorf("churn heal: restart %s: %w", sh.Name, err)
				}
				sh, _ = d.current()
			}
			// Rejoin is idempotent-ish: an up member answers 409, which is
			// fine; a left/failed one comes back.
			if _, err := cluster.Join(ctx, f.url, sh); err != nil {
				logf("scenario: churn heal: join %s: %v", sh.Name, err)
			}
		}
		time.Sleep(100 * time.Millisecond)
	}
	return fmt.Errorf("churn heal: shards_up stuck at %d < %d", f.rt.Counters().ShardsUp, len(f.daemons))
}
