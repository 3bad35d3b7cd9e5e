package main

import (
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strings"
	"time"

	"repro/internal/service"
)

// budgetRow is one line of the budget table: a layer's self time per plan.
type budgetRow struct {
	layer string
	ms    float64
}

// budgetTable renders the rows against a total (plan_p50_ms or failover_ms)
// and returns the share of the total the named rows account for.
func budgetTable(res *runResult, title string, total float64, rows []budgetRow) float64 {
	res.note("budget: %s = %.4f ms", title, total)
	res.note("  %-36s %12s %8s", "layer", "self ms", "share")
	sum := 0.0
	for _, r := range rows {
		res.note("  %-36s %12.4f %7.1f%%", r.layer, r.ms, 100*r.ms/total)
		sum += r.ms
	}
	res.note("  %-36s %12.4f %7.1f%%", "(not attributed)", total-sum, 100*(total-sum)/total)
	return sum / total
}

func medianMS(ns []float64) float64 { return median(ns) / 1e6 }

// spanLayers fills in the metrics read straight off the spans: each layer
// boundary's median duration, and the self times between them. A stack with
// no router has no router spans and reports 0 for them.
func spanLayers(m map[string]float64, spans []span) {
	durs, selfs := durations(spans), selfTimes(spans)
	for _, name := range []string{
		"service.client.plan_ms", "service.client.transport_ms", "service.handler_ms",
		"cluster.router_ms", "cluster.router.upstream_ms",
	} {
		m[name] = medianMS(durs[name])
	}
	m["service.client.self_ms"] = medianMS(selfs["service.client.plan_ms"])
	m["cluster.router.self_ms"] = medianMS(selfs["cluster.router_ms"])
	m["net.loopback_ms"] = medianMS(selfs["service.client.transport_ms"]) + medianMS(selfs["cluster.router.upstream_ms"])
}

// tracePlan is the traced run of a plan workload: two thirds of the window
// in the closed loop with every second session traced (the bare sessions in
// between give the tracing overhead), then the layer replays on the same
// payloads.
func tracePlan(cfg runConfig, su planSetup, rec *recorder, t *tally, res *runResult) error {
	fleetMode := su.stack.fleet != nil
	client := newClient(su.stack.url, rec)
	r := &replayer{client: client, rec: rec, tally: t, dirs: su.stack.dirs, tenants: su.stack.tenants}
	overlap := len(su.stack.tenants) > 0

	p0 := readProc()
	t0 := time.Now().Add(cfg.Warm / 2)
	all := closedLoop(r, su.streams, callers, overlap, cfg.Seed, t0.Add(cfg.Window*2/3))
	p1 := readProc()
	tracedMS, bareMS := all.window(t0, t0.Add(cfg.Window)).split()
	if len(tracedMS) == 0 || len(bareMS) == 0 {
		return fmt.Errorf("%s: traced run served no plan", cfg.Workload)
	}
	spans := rec.snapshot()
	if err := writeTrace(filepath.Join(cfg.OutDir, "trace-"+cfg.Workload+".json"), spans); err != nil {
		return err
	}

	m := res.Metrics
	m["trace.overhead_frac"] = overheadFrac(tracedMS, bareMS)
	procLayers(m, p0, p1, len(all.planMS))
	lat := summarize(tracedMS, tailNominal[cfg.Workload])
	spanLayers(m, spans)
	m["service.create_session_ms"] = median(all.createMS)
	m["service.delete_session_ms"] = median(all.deleteMS)
	m["wal_bytes_per_plan"] = float64(all.walBytes) / float64(max(all.walPlans, 1))
	if fleetMode {
		m["service.tenants.throttled_frac"] = float64(all.throttled) / float64(max(all.creates+all.throttled, 1))
		m["service.client.retries_per_plan"] = float64(client.Retries()) / float64(len(all.planMS))
	}

	// Layer replays. The differenced handler runs use the workload's own
	// journal mode; a fleet's shards also check fences around each append.
	replay := su.streams
	mode := service.FsyncPerInterval
	if fleetMode {
		mode = service.FsyncRecord
	} else {
		replay = replay[:2] // two 22-plan Genome-L sessions per configuration
	}
	jl, err := measureJournal(filepath.Join(cfg.Dir, "layers"), fleetMode, replay, mode)
	if err != nil {
		return err
	}
	cl, err := measureCodecs(replay, jl.bodies)
	if err != nil {
		return err
	}
	kl, err := measureCore(replay)
	if err != nil {
		return err
	}
	m["monitor.snapshot_encode_ms"] = cl.encodeMS
	m["monitor.snapshot_decode_ms"] = cl.decodeMS
	m["monitor.snapshot_bytes"] = cl.bytes
	m["service.planresp_encode_us"] = cl.respEncodeUS
	m["service.planresp_decode_us"] = cl.respDecodeUS
	m["core.plan_us"] = kl.planUS
	m["core.plan_allocs"] = kl.planAllocs
	m["predict.update_us"] = kl.updateUS
	m["lookahead.project_us"] = kl.projectUS
	m["steer.resize_us"] = kl.sizeUS
	m["service.journal.append_ms"] = jl.appendMS
	journalMS := jl.appendMS
	if fleetMode {
		m["service.journal.fsync_record_ms"] = jl.recordMS
		journalMS += jl.recordMS
		fc, err := measureFixedCosts()
		if err != nil {
			return err
		}
		m["cluster.ring.owner_ns"] = fc.ringOwnerNS
		m["service.tenants.admit_ns"] = fc.admitNS
		m["service.tenants.admit_throttled_ns"] = fc.admitThrottledNS
		m["service.tenants.observe_plan_ns"] = fc.observePlanNS
		m["service.metrics.observe_ns"] = fc.metricsObserveNS
		m["service.store.get_ns"] = fc.storeGetNS
	} else {
		m["service.journal.interval_ms"] = jl.intervalMS
		journalMS += jl.intervalMS
	}
	other := jl.handlerNoneMS - cl.decodeMS - kl.planUS/1e3 - cl.respEncodeUS/1e3
	m["service.handler.other_ms"] = other

	rows := []budgetRow{
		{"service.client (encode+decode)", m["service.client.self_ms"]},
		{"net.loopback", m["net.loopback_ms"]},
	}
	if fleetMode {
		rows = append(rows, budgetRow{"cluster.router", m["cluster.router.self_ms"]})
	}
	rows = append(rows,
		budgetRow{"monitor (snapshot decode)", cl.decodeMS},
		budgetRow{"core (predict+lookahead+steer)", kl.planUS / 1e3},
		budgetRow{"service.journal", journalMS},
		budgetRow{"service (response encode)", cl.respEncodeUS / 1e3},
		budgetRow{"service.handler (other)", other},
	)
	m["trace.attributed_frac"] = budgetTable(res, fmt.Sprintf("plan p50 of the %d traced plans (%d bare plans beside them: %.4f ms)", lat.N, len(bareMS), median(bareMS)), lat.P50, rows)
	return nil
}

// traceSimGrid is the traced run of sim-grid: two thirds of the window in
// the phases, every second pair of them recorded as spans, then the
// simulator's and the controller's layers one by one.
func traceSimGrid(cfg runConfig, su simSetup, res *runResult) error {
	runPhases(cfg, su, time.Now().Add(cfg.Warm/2), nil)
	rec := newRecorder()
	p0 := readProc()
	p := runPhases(cfg, su, time.Now().Add(cfg.Window*2/3), rec)
	p1 := readProc()
	if p.bad > 0 || len(p.gridRunsPerS) < 2 {
		return fmt.Errorf("sim-grid: traced run completed %d phase pairs: %v", len(p.gridRunsPerS), p.errs)
	}
	var tracedRate, bareRate []float64
	for i, traced := range p.traced {
		if traced {
			tracedRate = append(tracedRate, p.streamArrPS[i])
		} else {
			bareRate = append(bareRate, p.streamArrPS[i])
		}
	}
	if err := writeTrace(filepath.Join(cfg.OutDir, "trace-"+cfg.Workload+".json"), rec.snapshot()); err != nil {
		return err
	}
	m := res.Metrics
	m["trace.overhead_frac"] = 1 - median(tracedRate)/median(bareRate)
	procLayers(m, p0, p1, 0)
	m["sim_runs_per_s"] = median(p.gridRunsPerS)
	m["stream_arrivals_per_s"] = median(p.streamArrPS)
	m["experiments.grid_cells_per_s"] = median(p.gridCellsPerS)
	m["experiments.parallel_efficiency"] = su.serialWall.Seconds() / (float64(cfg.Workers) * median(p.gridWallS))
	m["tenancy.run_stream_ms"] = median(p.streamWallMS)

	var streams []*stream
	for _, key := range []string{"genome-l", "pagerank-l"} {
		st, err := recordStream(key, cfg.Seed)
		if err != nil {
			return err
		}
		streams = append(streams, st)
	}
	kl, err := measureCore(streams)
	if err != nil {
		return err
	}
	sl, err := measureSim(cfg.Seed)
	if err != nil {
		return err
	}
	m["core.plan_us"] = kl.planUS
	m["core.plan_allocs"] = kl.planAllocs
	m["predict.update_us"] = kl.updateUS
	m["lookahead.project_us"] = kl.projectUS
	m["steer.resize_us"] = kl.sizeUS
	m["sim.run_us_per_task"] = sl.runUSPerTask
	m["workloads.generate_ms_per_ktask"] = sl.generateMSPerKTask
	m["tenancy.generate_ms"] = sl.tenancyGenerateMS
	m["tenancy.apportion_us"] = sl.apportionUS
	m["trace.attributed_frac"] = budgetTable(res, "core.Plan median on the Genome-L and PageRank-L streams", kl.planUS/1e3, []budgetRow{
		{"predict (update)", kl.updateUS / 1e3},
		{"lookahead (project)", kl.projectUS / 1e3},
		{"steer (resize pool)", kl.sizeUS / 1e3},
	})
	res.Attempted, res.Failed, res.Errs = p.attempted, p.bad, p.errs
	return nil
}

// copyWALs copies the session WALs of src into a fresh directory dst and
// returns their total size.
func copyWALs(src, dst string) (int64, error) {
	if err := os.MkdirAll(dst, 0o755); err != nil {
		return 0, err
	}
	entries, err := os.ReadDir(src)
	if err != nil {
		return 0, err
	}
	var total int64
	for _, e := range entries {
		if e.IsDir() || !strings.HasSuffix(e.Name(), ".wal") {
			continue
		}
		in, err := os.Open(filepath.Join(src, e.Name()))
		if err != nil {
			return 0, err
		}
		out, err := os.Create(filepath.Join(dst, e.Name()))
		if err != nil {
			in.Close()
			return 0, err
		}
		n, err := io.Copy(out, in)
		in.Close()
		if cerr := out.Close(); err == nil {
			err = cerr
		}
		if err != nil {
			return 0, err
		}
		total += n
	}
	return total, nil
}

// measureHandoff times the two ways a journal directory is read back, on
// copies of the directory the coming kill will orphan: adoption into a
// running peer (Server.AdoptJournalDir, what failover does) and the replay
// of a cold restart (service.New on the directory).
func measureHandoff(cs *cycleStats, src, scratch string) error {
	size, err := copyWALs(src, filepath.Join(scratch, "adopt-src"))
	if err != nil {
		return err
	}
	peer := service.New(service.Config{ShardMode: true, JournalDir: filepath.Join(scratch, "adopt-dst")})
	t0 := time.Now()
	total, _, err := peer.AdoptJournalDir(filepath.Join(scratch, "adopt-src"), 1, "bench")
	took := time.Since(t0)
	if err != nil || total == 0 {
		return fmt.Errorf("adopting a copy of %s: %d sessions, %v", src, total, err)
	}
	cs.adoptMSPerSession = ms(took) / float64(total)
	cs.replayMBPerS = float64(size) / 1e6 / took.Seconds()

	if _, err := copyWALs(src, filepath.Join(scratch, "cold")); err != nil {
		return err
	}
	t1 := time.Now()
	cold := service.New(service.Config{JournalDir: filepath.Join(scratch, "cold")})
	took = time.Since(t1)
	if n := cold.Store().Len(); n != total {
		return fmt.Errorf("cold restart recovered %d of %d sessions", n, total)
	}
	cs.coldReplayMSPerSession = ms(took) / float64(total)
	return nil
}

// traceFailover turns the cycles of a traced fleet-failover run into its
// per-layer metrics and the failover budget table.
func traceFailover(cfg runConfig, cycles []*cycleStats, rec *recorder, res *runResult) error {
	spans := rec.snapshot()
	if err := writeTrace(filepath.Join(cfg.OutDir, "trace-"+cfg.Workload+".json"), spans); err != nil {
		return err
	}
	col := func(f func(*cycleStats) float64) float64 {
		var xs []float64
		for _, cs := range cycles {
			xs = append(xs, f(cs))
		}
		return median(xs)
	}
	m := res.Metrics
	m["failover_ms"] = col(func(c *cycleStats) float64 { return c.failoverMS })
	m["drain_ms_per_session"] = col(func(c *cycleStats) float64 { return c.drainMS / float64(max(c.drained, 1)) })
	m["cluster.membership.detect_ms"] = col(func(c *cycleStats) float64 { return c.detectMS })
	m["service.handoff.adopt_ms_per_session"] = col(func(c *cycleStats) float64 { return c.adoptMSPerSession })
	m["service.handoff.replay_mb_per_s"] = col(func(c *cycleStats) float64 { return c.replayMBPerS })
	m["service.journal.replay_ms_per_session"] = col(func(c *cycleStats) float64 { return c.coldReplayMSPerSession })
	m["service.journal.wal_bytes_per_session"] = col(func(c *cycleStats) float64 { return float64(c.walBytes) / float64(max(c.sessions, 1)) })
	m["wal_bytes_per_plan"] = col(func(c *cycleStats) float64 { return float64(c.walBytes) / float64(max(c.popPlans, 1)) })
	m["cluster.router.recovering_503"] = col(func(c *cycleStats) float64 { return float64(c.recovering503) })
	m["cluster.router.proxy_errors"] = col(func(c *cycleStats) float64 { return float64(c.proxyErrors) })
	m["audit.records_per_s"] = col(func(c *cycleStats) float64 { return float64(c.auditRecords) / c.auditWall.Seconds() })
	m["audit.violations"] = col(func(c *cycleStats) float64 { return float64(c.violations) })

	spanLayers(m, spans)
	var tracedMS, bareMS []float64
	for _, cs := range cycles {
		tracedMS = append(tracedMS, cs.tracedMS...)
		bareMS = append(bareMS, cs.bareMS...)
	}
	m["trace.overhead_frac"] = overheadFrac(tracedMS, bareMS)

	// The failover budget: where the time between the kill and the last
	// victim session's answer went, per cycle, medians.
	detect := col(func(c *cycleStats) float64 { return c.adoptStartMS })
	adopt := col(func(c *cycleStats) float64 { return c.adoptEndMS - c.adoptStartMS })
	resume := col(func(c *cycleStats) float64 { return c.failoverMS - c.adoptEndMS })
	m["trace.attributed_frac"] = budgetTable(res, "failover_ms (kill to last victim session served)", m["failover_ms"], []budgetRow{
		{"cluster.membership (detect+confirm)", detect},
		{"service.handoff (adopt+replay)", adopt},
		{"victims resume (serve stalled)", resume},
	})
	return nil
}
