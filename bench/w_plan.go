package main

import (
	"context"
	"fmt"
	"path/filepath"
	"strconv"
	"time"

	"repro/internal/service"
)

// planStack is the program under test for the two plan workloads: either
// one daemon, or a router over a fleet.
type planStack struct {
	url     string
	dirs    []string
	tenants []string
	direct  *daemon
	fleet   *fleet
}

func (s *planStack) stop() {
	if s.direct != nil {
		s.direct.kill()
	}
	if s.fleet != nil {
		s.fleet.stop()
	}
}

// fleetTenants is the tenant count of plan-fleet-small. Each shard gates on
// its own registry with MaxActive 1, so with two callers a create collides
// when the other caller's live session has the same tenant on the same
// shard: 1 in 3×7 ≈ 5 % of creates are answered 429 and re-issued.
const fleetTenants = 7

// planSetup is everything before the timed window: record the inputs with
// their twin decisions, start the stack, register the tenants.
type planSetup struct {
	streams []*stream
	stack   *planStack
}

func runPlanDirectLarge(cfg runConfig) (*runResult, error) {
	return runPlan(cfg, func(i int, rec *recorder) (planSetup, func(), error) {
		streams, err := recordStreams(cfg.Seed, largeKeys, 3)
		if err != nil {
			return planSetup{}, nil, err
		}
		dir := filepath.Join(cfg.Dir, "direct-"+strconv.Itoa(i))
		d, err := startDaemon("direct", service.Config{JournalDir: dir}, rec)
		if err != nil {
			return planSetup{}, nil, err
		}
		st := &planStack{url: d.url, dirs: []string{dir}, direct: d}
		return planSetup{streams: streams, stack: st}, st.stop, nil
	})
}

func runPlanFleetSmall(cfg runConfig) (*runResult, error) {
	return runPlan(cfg, func(i int, rec *recorder) (planSetup, func(), error) {
		streams, err := recordStreams(cfg.Seed, smallKeys, smallPerKey)
		if err != nil {
			return planSetup{}, nil, err
		}
		f, err := startFleet(fleetConfig{
			Root:   filepath.Join(cfg.Dir, "fleet-"+strconv.Itoa(i)),
			Shards: 3,
			Fsync:  service.FsyncRecord,
		}, rec)
		if err != nil {
			return planSetup{}, nil, err
		}
		st := &planStack{url: f.url, dirs: f.dirs(), fleet: f}
		admin := service.NewClient(f.url)
		for t := 0; t < fleetTenants; t++ {
			name := "tenant-" + strconv.Itoa(t)
			if _, err := admin.CreateTenant(context.Background(), service.TenantSpec{Name: name, MaxActive: 1}); err != nil {
				st.stop()
				return planSetup{}, nil, fmt.Errorf("register %s: %w", name, err)
			}
			st.tenants = append(st.tenants, name)
		}
		return planSetup{streams: streams, stack: st}, st.stop, nil
	})
}

// runPlan is the shared body of the plan workloads: closed-loop replay of
// recorded sessions against the stack, every decision compared to the twin.
func runPlan(cfg runConfig, setup func(i int, rec *recorder) (planSetup, func(), error)) (*runResult, error) {
	var rec *recorder
	if cfg.Trace {
		rec = newRecorder()
	}
	su, stop, setupS, err := setupMedian(func(i int) (planSetup, func(), error) { return setup(i, rec) })
	if err != nil {
		return nil, err
	}
	defer stop()

	t := &tally{}
	res := &runResult{Metrics: map[string]float64{}}
	if cfg.Trace {
		if err := tracePlan(cfg, su, rec, t, res); err != nil {
			return nil, err
		}
	} else {
		r := &replayer{client: newClient(su.stack.url, nil), tally: t, dirs: su.stack.dirs, tenants: su.stack.tenants}
		start := time.Now().Add(cfg.Warm)
		end := start.Add(cfg.Window)
		all := closedLoop(r, su.streams, callers, len(su.stack.tenants) > 0, cfg.Seed, end)
		win := all.window(start, end)
		if len(win.planMS) == 0 || len(win.sessionMS) == 0 {
			return nil, fmt.Errorf("%s: no session completed inside the window", cfg.Workload)
		}
		lat := summarize(win.planMS, tailNominal[cfg.Workload])
		res.Metrics["setup_s"] = setupS
		res.Metrics["plans_per_s"] = medianSliceRate(win.planDone, start, cfg.Window/slices, slices)
		res.Metrics["plan_p50_ms"] = lat.P50
		res.Metrics["plan_p99_ms"] = lat.Tail
		res.Metrics["ms_per_session"] = median(win.sessionMS)
		res.note("plans %d (tail = p%g)  sessions %d  creates %d  throttled %d  wal bytes/plan %.1f",
			lat.N, lat.TailPct, len(win.sessionMS), all.creates, all.throttled, float64(all.walBytes)/float64(max(all.walPlans, 1)))
	}
	res.Attempted, res.Failed, res.Errs = t.attempted.Load(), t.failed.Load(), t.errs
	return res, nil
}
