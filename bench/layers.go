package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"runtime"
	"runtime/metrics"
	"strconv"
	"time"

	"repro/internal/baseline"
	"repro/internal/cluster"
	"repro/internal/lookahead"
	"repro/internal/monitor"
	"repro/internal/predict"
	"repro/internal/service"
	"repro/internal/sim"
	"repro/internal/steer"
	"repro/internal/tenancy"
	"repro/internal/workloads"
)

// Everything here measures one layer from outside: it calls the package's
// public functions on the workload's own recorded payloads and times the
// calls. Nothing is read from inside the program.

func nsSince(t time.Time) float64 { return float64(time.Since(t).Nanoseconds()) }

// perCall times fn n times and returns the median nanoseconds per call.
// Calls too short to time singly are timed in batches.
func perCall(n, batch int, fn func()) float64 {
	samples := make([]float64, 0, n)
	for i := 0; i < n; i++ {
		t0 := time.Now()
		for j := 0; j < batch; j++ {
			fn()
		}
		samples = append(samples, nsSince(t0)/float64(batch))
	}
	return median(samples)
}

// codecLayers measures the snapshot and plan-response codecs on the
// recorded streams. bodies are real response bodies captured from a handler.
type codecLayers struct {
	encodeMS, decodeMS, bytes  float64
	respEncodeUS, respDecodeUS float64
}

func measureCodecs(streams []*stream, respBodies [][]byte) (codecLayers, error) {
	var out codecLayers
	var enc, dec, size []float64
	var buf []byte
	scratch := new(monitor.Snapshot)
	for _, st := range streams {
		for _, snap := range st.Snaps {
			t0 := time.Now()
			b, err := monitor.AppendSnapshotJSON(buf[:0], snap)
			enc = append(enc, nsSince(t0))
			if err != nil {
				return out, err
			}
			buf = b
			// The daemon decodes into a per-session scratch snapshot whose
			// slices keep their capacity; so does this.
			*scratch = monitor.Snapshot{Tasks: scratch.Tasks[:0], Instances: scratch.Instances[:0], RecentTransfers: scratch.RecentTransfers[:0]}
			t1 := time.Now()
			err = monitor.UnmarshalSnapshot(b, scratch)
			dec = append(dec, nsSince(t1))
			if err != nil {
				return out, err
			}
			size = append(size, float64(len(b)))
		}
	}
	out.encodeMS, out.decodeMS = median(enc)/1e6, median(dec)/1e6
	for _, v := range size {
		out.bytes += v / float64(len(size))
	}
	var renc, rdec []float64
	for _, body := range respBodies {
		var resp service.PlanResponse
		t0 := time.Now()
		err := resp.UnmarshalJSON(body)
		rdec = append(rdec, nsSince(t0))
		if err != nil {
			return out, err
		}
		t1 := time.Now()
		b, err := resp.AppendJSON(buf[:0])
		renc = append(renc, nsSince(t1))
		if err != nil {
			return out, err
		}
		buf = b
	}
	out.respEncodeUS, out.respDecodeUS = median(renc)/1e3, median(rdec)/1e3
	return out, nil
}

// coreLayers replays the streams through fresh controllers, and through the
// predictor, the projector and Algorithm 3 separately the way core.Plan
// chains them.
type coreLayers struct {
	planUS, planAllocs          float64
	updateUS, projectUS, sizeUS float64
}

func measureCore(streams []*stream) (coreLayers, error) {
	var out coreLayers
	var plan, update, project, size []float64
	var mallocs uint64
	plans := 0
	for _, st := range streams {
		run, _ := workloads.ByKey(st.Key)
		wf := run.Generate(st.Seed)
		ctrl, err := service.NewPolicyController("wire", nil)
		if err != nil {
			return out, err
		}
		pred := predict.New(predict.Config{})
		var proj lookahead.Projector
		var m0, m1 runtime.MemStats
		for i, snap := range st.Snaps {
			full := *snap
			full.Workflow = wf
			runtime.ReadMemStats(&m0)
			t0 := time.Now()
			dec := ctrl.Plan(&full)
			plan = append(plan, nsSince(t0))
			runtime.ReadMemStats(&m1)
			mallocs += m1.Mallocs - m0.Mallocs
			plans++
			if got, _ := json.Marshal(dec); !bytes.Equal(got, st.Want[i]) {
				return out, fmt.Errorf("in-process replay of %s/%d diverged at plan %d", st.Key, st.Seed, i+1)
			}

			t1 := time.Now()
			pred.Update(&full)
			update = append(update, nsSince(t1))
			t2 := time.Now()
			load := proj.Project(&full, pred)
			project = append(project, nsSince(t2))
			rem := load.Remainings()
			t3 := time.Now()
			steer.ResizePool(rem, full.ChargingUnit, full.SlotsPerInstance, 0)
			size = append(size, nsSince(t3))
		}
	}
	out.planUS = median(plan) / 1e3
	out.planAllocs = float64(mallocs) / float64(max(plans, 1))
	out.updateUS, out.projectUS, out.sizeUS = median(update)/1e3, median(project)/1e3, median(size)/1e3
	return out, nil
}

// handlerReplay serves the streams through Server.Handler() in-process — no
// socket, no client — and returns each plan's wall time with the response
// bodies. Every decision is still checked against the twin.
func handlerReplay(cfg service.Config, streams []*stream) (planMS []float64, bodies [][]byte, err error) {
	h := service.New(cfg).Handler()
	var buf []byte
	for _, st := range streams {
		body, _ := json.Marshal(st.createRequest(""))
		rr := httptest.NewRecorder()
		h.ServeHTTP(rr, httptest.NewRequest(http.MethodPost, "/v1/sessions", bytes.NewReader(body)))
		if rr.Code != http.StatusCreated {
			return nil, nil, fmt.Errorf("handler create: HTTP %d: %s", rr.Code, rr.Body)
		}
		var info service.SessionInfo
		if err := json.Unmarshal(rr.Body.Bytes(), &info); err != nil {
			return nil, nil, err
		}
		for i, snap := range st.Snaps {
			if buf, err = monitor.AppendSnapshotJSON(buf[:0], snap); err != nil {
				return nil, nil, err
			}
			req := httptest.NewRequest(http.MethodPost, "/v1/sessions/"+info.ID+"/plan", bytes.NewReader(buf))
			req.Header.Set(service.PlanSeqHeader, strconv.Itoa(i+1))
			rr := httptest.NewRecorder()
			t0 := time.Now()
			h.ServeHTTP(rr, req)
			planMS = append(planMS, nsSince(t0)/1e6)
			if rr.Code != http.StatusOK {
				return nil, nil, fmt.Errorf("handler plan: HTTP %d: %s", rr.Code, rr.Body)
			}
			var resp service.PlanResponse
			if err := resp.UnmarshalJSON(rr.Body.Bytes()); err != nil {
				return nil, nil, err
			}
			if got, _ := json.Marshal(resp.Decision); !bytes.Equal(got, st.Want[i]) {
				return nil, nil, fmt.Errorf("handler replay of %s/%d diverged at plan %d", st.Key, st.Seed, i+1)
			}
			bodies = append(bodies, append([]byte(nil), rr.Body.Bytes()...))
		}
		rr = httptest.NewRecorder()
		h.ServeHTTP(rr, httptest.NewRequest(http.MethodDelete, "/v1/sessions/"+info.ID, nil))
		if rr.Code != http.StatusNoContent {
			return nil, nil, fmt.Errorf("handler delete: HTTP %d", rr.Code)
		}
	}
	return planMS, bodies, nil
}

// journalLayers differences handler medians across journal configurations.
type journalLayers struct {
	handlerNoneMS float64 // no journal at all
	appendMS      float64 // journal with fsync off, minus none
	intervalMS    float64 // fsync interval, minus off
	recordMS      float64 // fsync record, minus off
	bodies        [][]byte
}

func measureJournal(dir string, shard bool, streams []*stream, modes ...string) (journalLayers, error) {
	var out journalLayers
	none, bodies, err := handlerReplay(service.Config{ShardMode: shard}, streams)
	if err != nil {
		return out, err
	}
	out.handlerNoneMS, out.bodies = median(none), bodies
	med := map[string]float64{}
	for _, mode := range append([]string{service.FsyncOff}, modes...) {
		ms, _, err := handlerReplay(service.Config{ShardMode: shard, JournalDir: dir + "-" + mode, FsyncMode: mode}, streams)
		if err != nil {
			return out, err
		}
		med[mode] = median(ms)
	}
	out.appendMS = med[service.FsyncOff] - out.handlerNoneMS
	if v, ok := med[service.FsyncPerInterval]; ok {
		out.intervalMS = v - med[service.FsyncOff]
	}
	if v, ok := med[service.FsyncRecord]; ok {
		out.recordMS = v - med[service.FsyncOff]
	}
	return out, nil
}

// fixedCostLayers are direct calls into the per-request fixed-cost pieces the
// fleet path crosses, in nanoseconds per call.
type fixedCostLayers struct {
	ringOwnerNS, admitNS, admitThrottledNS, observePlanNS, metricsObserveNS, storeGetNS float64
}

func measureFixedCosts() (fixedCostLayers, error) {
	var out fixedCostLayers
	ring, err := cluster.NewRing([]string{"s0", "s1", "s2"}, cluster.DefaultVNodes)
	if err != nil {
		return out, err
	}
	ids := make([]string, 256)
	for i := range ids {
		if ids[i], err = service.NewSessionID(); err != nil {
			return out, err
		}
	}
	i := 0
	out.ringOwnerNS = perCall(200, 100, func() { ring.Owner(ids[i%len(ids)]); i++ })

	reg := service.NewTenantRegistry()
	reg.Configure(service.TenantSpec{Name: "open"})
	out.admitNS = perCall(200, 100, func() { reg.Admit("open"); reg.Release("open") }) // admit + its release
	reg.Configure(service.TenantSpec{Name: "full", MaxActive: 1})
	reg.Admit("full")
	out.admitThrottledNS = perCall(200, 100, func() { reg.Admit("full") })
	out.observePlanNS = perCall(200, 100, func() { reg.ObservePlan("open", 4, 180, 900) })

	m := service.NewMetrics(time.Now())
	out.metricsObserveNS = perCall(200, 100, func() { m.Observe("plan", time.Millisecond, false) })

	store := service.NewStore(0, time.Now)
	run, _ := workloads.ByKey("tpch6-s")
	wf := run.Generate(1)
	var sids []string
	for k := 0; k < 64; k++ {
		s, err := store.Create("full-site", wf, baseline.Static{})
		if err != nil {
			return out, err
		}
		sids = append(sids, s.ID)
	}
	out.storeGetNS = perCall(200, 100, func() { _, _ = store.Get(sids[i%len(sids)]); i++ })
	return out, nil
}

// simLayers are the simulator-side micro-measurements of sim-grid.
type simLayers struct {
	runUSPerTask, generateMSPerKTask, tenancyGenerateMS, apportionUS float64
}

func measureSim(seed int64) (simLayers, error) {
	var out simLayers
	run, _ := workloads.ByKey("genome-l")
	wf := run.Generate(seed)
	cfg := sim.Config{Cloud: paperSite, InitialInstances: paperSite.MaxInstances, Seed: seed}
	var us []float64
	for i := 0; i < 5; i++ {
		t0 := time.Now()
		if _, err := sim.Run(wf, baseline.Static{}, cfg); err != nil {
			return out, err
		}
		us = append(us, nsSince(t0)/1e3/float64(wf.NumTasks()))
	}
	out.runUSPerTask = median(us)

	var gen []float64
	for i := 0; i < 5; i++ {
		tasks := 0
		t0 := time.Now()
		for _, r := range workloads.Catalog() {
			tasks += r.Generate(seed + int64(i)).NumTasks()
		}
		gen = append(gen, nsSince(t0)/1e6/(float64(tasks)/1000))
	}
	out.generateMSPerKTask = median(gen)

	out.tenancyGenerateMS = perCall(20, 1, func() { _, _ = tenancy.Generate(streamConfig(seed)) }) / 1e6

	statuses := make([]tenancy.RunStatus, 6)
	for i := range statuses {
		statuses[i] = tenancy.RunStatus{
			ID: i, Tenant: "t" + strconv.Itoa(i%3), Held: 1, Remaining: 20 + 10*i, Slots: 2,
			ArrivedAt: 0, Deadline: 3600 + 600*float64(i), EstWorkS: 400 * float64(i+1),
		}
	}
	acfg := tenancy.ArbiterConfig{Policy: tenancy.Urgency, Cap: 6, BudgetUnits: 70, Interval: 180}
	out.apportionUS = perCall(200, 20, func() { tenancy.Apportion(acfg, statuses, 30, 6, 1800) }) / 1e3
	return out, nil
}

// procCounters snapshots the process-wide allocation and GC counters.
type procCounters struct {
	mallocs, bytes uint64
	gcCPU, allCPU  float64
}

func readProc() procCounters {
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	s := []metrics.Sample{{Name: "/cpu/classes/gc/total:cpu-seconds"}, {Name: "/cpu/classes/total:cpu-seconds"}}
	metrics.Read(s)
	p := procCounters{mallocs: m.Mallocs, bytes: m.TotalAlloc}
	if s[0].Value.Kind() == metrics.KindFloat64 {
		p.gcCPU = s[0].Value.Float64()
	}
	if s[1].Value.Kind() == metrics.KindFloat64 {
		p.allCPU = s[1].Value.Float64()
	}
	return p
}

// procLayers reports allocation per plan and the GC's share of CPU between
// two snapshots.
func procLayers(into map[string]float64, a, b procCounters, plans int) {
	if plans > 0 {
		into["proc.allocs_per_plan"] = float64(b.mallocs-a.mallocs) / float64(plans)
		into["proc.alloc_bytes_per_plan"] = float64(b.bytes-a.bytes) / float64(plans)
	}
	if d := b.allCPU - a.allCPU; d > 0 {
		into["proc.gc_cpu_frac"] = (b.gcCPU - a.gcCPU) / d
	}
}
