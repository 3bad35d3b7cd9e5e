package main

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"sync"
	"time"

	"repro/internal/cloud"
	"repro/internal/core"
	"repro/internal/experiments"
	"repro/internal/monitor"
	"repro/internal/sim"
	"repro/internal/simtime"
	"repro/internal/tenancy"
)

// The tenancy stream is PR 9's frozen acceptance setting: 51 Poisson
// arrivals from 3 tenants at 24/h each, over the three small workflows, on a
// 2-slot site capped at 6 instances, urgency arbiter under a 70-unit budget.
// Only the seed comes from the driver.
func streamConfig(seed int64) tenancy.StreamConfig {
	return tenancy.StreamConfig{
		Seed: seed, Process: tenancy.Poisson, N: 51, Tenants: 3, RatePerHour: 24,
		Keys:  []string{"tpch6-s", "tpch1-s", "pagerank-s"},
		Slots: 2, LagS: 180, ChargingUnitS: 900,
	}
}

func multiConfig(newCtrl func(tenancy.Arrival, simtime.Time) sim.Controller) tenancy.MultiConfig {
	return tenancy.MultiConfig{
		Cloud:         cloud.Config{SlotsPerInstance: 2, LagTime: 180, ChargingUnit: 900, MaxInstances: 6},
		Arbiter:       tenancy.ArbiterConfig{Policy: tenancy.Urgency, Cap: 6, BudgetUnits: 70},
		SimSeed:       42,
		NewController: newCtrl,
	}
}

// timedCtrl times every Plan of the controller it wraps. RunStream runs one
// simulator at a time, but each on its own goroutine, hence the lock.
type timedCtrl struct {
	inner sim.Controller
	mu    *sync.Mutex
	ms    *[]float64
}

func (c *timedCtrl) Name() string { return c.inner.Name() }

func (c *timedCtrl) Plan(snap *monitor.Snapshot) sim.Decision {
	t0 := time.Now()
	dec := c.inner.Plan(snap)
	d := ms(time.Since(t0))
	c.mu.Lock()
	*c.ms = append(*c.ms, d)
	c.mu.Unlock()
	return dec
}

// defaultStreamController is RunStream's own default (a nil NewController),
// restated so it can be wrapped; the reference digest taken in set-up with
// the real default proves the two equal on every run.
func defaultStreamController(arr tenancy.Arrival, admittedAt simtime.Time) sim.Controller {
	if arr.DeadlineS <= 0 {
		return core.New(core.Config{})
	}
	return core.NewDeadline(core.DeadlineConfig{Deadline: arr.Deadline() - admittedAt})
}

// streamDigest hashes every arrival's fate.
func streamDigest(res *tenancy.MultiResult) string {
	h := sha256.New()
	fmt.Fprintf(h, "%s %d %d %d %d %v\n", res.Policy, res.TotalUnits, res.Misses, res.PeakHeld, res.ThrottledAdmissions, res.MakespanS)
	for _, o := range res.Outcomes {
		fmt.Fprintf(h, "%d %s %v %v %v %t %d %d\n", o.Arrival.Index, o.Arrival.Tenant, o.AdmittedAt, o.QueueDelayS, o.CompletedAt, o.Missed, o.Units, o.Result.Decisions)
	}
	return hex.EncodeToString(h.Sum(nil))
}

// gridDigest hashes the Figure 5/6 headline and every cell's cost and
// makespan.
func gridDigest(res *experiments.CostResult) string {
	h := sha256.New()
	fmt.Fprintf(h, "%+v\n", res.Headline())
	for _, c := range res.Cells {
		fmt.Fprintf(h, "%s %s %v %v %v %v %v\n", c.RunKey, c.Policy, c.Unit, c.Summary.CostMean, c.Summary.CostStd, c.Summary.MakespanMean, c.Summary.MakespanStd)
	}
	return hex.EncodeToString(h.Sum(nil))
}

func gridConfig(seed int64, workers int) experiments.Config {
	cfg := experiments.Defaults()
	cfg.Seed = seed
	cfg.Workers = workers
	return cfg
}

// simSetup is sim-grid's set-up, the oracle for the window: the arrival
// stream with the digest of its run under RunStream's default controllers,
// and the digest of the grid run on one worker.
type simSetup struct {
	streams    []*tenancy.Stream
	digests    []string
	plans      int // MAPE iterations in one pass over the streams
	gridDigest string
	serialWall time.Duration
}

// streamsPerPhase arrival streams, seeded seed, seed+1, ..., follow each
// grid. One 51-arrival stream takes a thirtieth of a grid, and the two
// should share the window; ten different streams rather than one repeated
// also average out how much a single draw's workflow mix weighs.
const streamsPerPhase = 10

func setupSimGrid(seed int64) (simSetup, error) {
	var su simSetup
	for i := int64(0); i < streamsPerPhase; i++ {
		s, err := tenancy.Generate(streamConfig(seed + i))
		if err != nil {
			return simSetup{}, err
		}
		ref, err := tenancy.RunStream(s, multiConfig(nil))
		if err != nil {
			return simSetup{}, fmt.Errorf("reference stream run: %w", err)
		}
		su.streams = append(su.streams, s)
		su.digests = append(su.digests, streamDigest(ref))
		for _, o := range ref.Outcomes {
			su.plans += o.Result.Decisions
		}
	}
	t0 := time.Now()
	grid, err := experiments.CostExperiment(gridConfig(seed, 1))
	if err != nil {
		return simSetup{}, fmt.Errorf("reference grid run: %w", err)
	}
	su.serialWall = time.Since(t0)
	su.gridDigest = gridDigest(grid)
	return su, nil
}

// simPhases is what the alternating grid and stream phases measured.
type simPhases struct {
	gridMSPerRun   []float64 // per grid phase
	gridRunsPerS   []float64
	gridCellsPerS  []float64
	gridWallS      []float64
	streamPlansPS  []float64 // per stream phase
	streamArrPS    []float64
	streamWallMS   []float64
	planMS         []float64 // pooled controller Plan latencies inside streams
	traced         []bool    // per pair of phases, when all of them succeeded
	gridDigests    map[int64]string
	attempted, bad int64
	errs           []string
}

func (p *simPhases) fail(n int64, format string, args ...any) {
	p.bad += n
	if len(p.errs) < 8 {
		p.errs = append(p.errs, fmt.Sprintf(format, args...))
	}
}

// grid runs one full Figure 5/6 grid and checks its digest against every
// earlier grid of the same seed.
func (p *simPhases) grid(seed int64, workers int) {
	cfg := gridConfig(seed, workers)
	t0 := time.Now()
	res, err := experiments.CostExperiment(cfg)
	wall := time.Since(t0)
	if err != nil {
		p.attempted++
		p.fail(1, "grid seed %d: %v", seed, err)
		return
	}
	runs := int64(len(res.Cells) * cfg.Reps)
	p.attempted += runs
	d := gridDigest(res)
	if prev, ok := p.gridDigests[seed]; ok && prev != d {
		p.fail(runs, "grid seed %d at %d workers: digest %s differs from an earlier run's %s", seed, workers, d[:12], prev[:12])
		return
	}
	p.gridDigests[seed] = d
	p.gridMSPerRun = append(p.gridMSPerRun, ms(wall)/float64(runs))
	p.gridRunsPerS = append(p.gridRunsPerS, float64(runs)/wall.Seconds())
	p.gridCellsPerS = append(p.gridCellsPerS, float64(len(res.Cells))/wall.Seconds())
	p.gridWallS = append(p.gridWallS, wall.Seconds())
}

// streams runs every arrival stream once with every controller timed and
// checks each outcome digest against the set-up reference.
func (p *simPhases) streams(su simSetup) {
	var mu sync.Mutex
	var lat []float64
	wrap := func(arr tenancy.Arrival, at simtime.Time) sim.Controller {
		return &timedCtrl{inner: defaultStreamController(arr, at), mu: &mu, ms: &lat}
	}
	var wall time.Duration
	var arrivals int64
	for i, s := range su.streams {
		n := int64(len(s.Arrivals))
		t0 := time.Now()
		res, err := tenancy.RunStream(s, multiConfig(wrap))
		took := time.Since(t0)
		p.attempted += n
		if err != nil {
			p.fail(n, "stream %d: %v", i, err)
			continue
		}
		if d := streamDigest(res); d != su.digests[i] {
			p.fail(n, "stream %d: digest %s differs from the reference %s", i, d[:12], su.digests[i][:12])
			continue
		}
		wall += took
		arrivals += n
		p.streamWallMS = append(p.streamWallMS, ms(took))
	}
	if arrivals == 0 {
		return
	}
	p.streamPlansPS = append(p.streamPlansPS, float64(len(lat))/wall.Seconds())
	p.streamArrPS = append(p.streamArrPS, float64(arrivals)/wall.Seconds())
	p.planMS = append(p.planMS, lat...)
}

// gridSeeds grid seeds, seed, seed+1, ..., take turns. How long a grid takes
// depends on its draw of task times (a slower Genome-L has more MAPE
// intervals to simulate), by several per cent from seed to seed; the median
// over phases of eight draws depends on the driver's seed far less than one
// draw repeated would.
const gridSeeds = 8

// runPhases alternates grid and stream phases until `until`. Every grid
// seed's digest must repeat whenever the seed comes round again, and the
// first seed's must also match the one-worker reference from set-up. With a
// recorder, every second pair of phases is recorded as two spans and flagged
// in p.traced.
func runPhases(cfg runConfig, su simSetup, until time.Time, rec *recorder) *simPhases {
	p := &simPhases{gridDigests: map[int64]string{cfg.Seed: su.gridDigest}}
	for rep := int64(0); time.Now().Before(until); rep++ {
		t0 := time.Now()
		p.grid(cfg.Seed+rep%gridSeeds, cfg.Workers)
		t1 := time.Now()
		p.streams(su)
		traced := rec != nil && rep%2 == 1
		if traced {
			rec.add("experiments.grid", t0, t1)
			rec.add("tenancy.stream_pass", t1, time.Now())
		}
		p.traced = append(p.traced, traced)
	}
	return p
}

func runSimGrid(cfg runConfig) (*runResult, error) {
	su, _, setupS, err := setupMedian(func(int) (simSetup, func(), error) {
		s, err := setupSimGrid(cfg.Seed)
		return s, func() {}, err
	})
	if err != nil {
		return nil, err
	}
	res := &runResult{Metrics: map[string]float64{}}
	if cfg.Trace {
		if err := traceSimGrid(cfg, su, res); err != nil {
			return nil, err
		}
		return res, nil
	}
	warm := runPhases(cfg, su, time.Now().Add(cfg.Warm), nil)
	p := runPhases(cfg, su, time.Now().Add(cfg.Window), nil)
	if len(p.gridMSPerRun) == 0 || len(p.planMS) == 0 {
		return nil, fmt.Errorf("sim-grid: no phase completed: %v", p.errs)
	}
	lat := summarize(p.planMS, tailNominal[cfg.Workload])
	res.Metrics["setup_s"] = setupS
	res.Metrics["plans_per_s"] = median(p.streamPlansPS)
	res.Metrics["plan_p50_ms"] = lat.P50
	res.Metrics["plan_p99_ms"] = lat.Tail
	res.Metrics["ms_per_session"] = median(p.gridMSPerRun)
	res.note("grids %d (%.1f simulated runs/s)  stream passes %d (%.1f arrivals/s, %d plans a pass)  plan samples %d (tail = p%g)",
		len(p.gridMSPerRun), median(p.gridRunsPerS), len(p.streamPlansPS), median(p.streamArrPS), su.plans, lat.N, lat.TailPct)
	res.Attempted = warm.attempted + p.attempted
	res.Failed = warm.bad + p.bad
	res.Errs = append(warm.errs, p.errs...)
	return res, nil
}
