package main

import (
	"encoding/json"
	"fmt"
	"math/rand"

	"repro/internal/cloud"
	"repro/internal/dist"
	"repro/internal/monitor"
	"repro/internal/service"
	"repro/internal/sim"
	"repro/internal/workloads"
)

// paperSite is the paper's ExoGENI site (§IV-B): 12 instances of 4 slots,
// 3-minute lag, 15-minute charging unit. Every recorded stream runs on it.
var paperSite = cloud.Config{SlotsPerInstance: 4, LagTime: 180, ChargingUnit: 900, MaxInstances: 12}

// Catalogue keys replayed by the service workloads. Eight recorded sessions
// of each small workflow, so that one seed's draw of long or short runs does
// not set the mix.
var (
	largeKeys = []string{"genome-l"}
	smallKeys = []string{"genome-s", "tpch1-l", "pagerank-l"}
)

const smallPerKey = 8

// stream is one pre-recorded session: the monitoring snapshots one simulated
// run of (key, seed) showed its controller, and the decision an in-process
// WIRE controller — the twin — gave for each. The timed window only replays
// these, so the client side costs an encode and a compare, not a simulator.
type stream struct {
	Key  string
	Seed int64
	// Snaps are private deep copies with Workflow stripped (the simulator
	// reuses its snapshot between plans).
	Snaps []*monitor.Snapshot
	// Want[i] is json.Marshal of the twin's decision for Snaps[i].
	Want [][]byte
	// BodyBytes is the mean encoded snapshot size.
	BodyBytes float64
}

func (s *stream) createRequest(tenant string) service.CreateSessionRequest {
	return service.CreateSessionRequest{WorkflowKey: s.Key, WorkflowSeed: s.Seed, Tenant: tenant}
}

// grabber records what the wrapped controller saw and decided.
type grabber struct {
	inner sim.Controller
	out   *stream
	err   error
}

func (g *grabber) Name() string { return g.inner.Name() }

func (g *grabber) Plan(snap *monitor.Snapshot) sim.Decision {
	dec := g.inner.Plan(snap)
	if g.err != nil {
		return dec
	}
	lean := *snap
	lean.Workflow = nil
	body, err := monitor.AppendSnapshotJSON(nil, &lean)
	if err != nil {
		g.err = err
		return dec
	}
	cp := new(monitor.Snapshot)
	if err := monitor.UnmarshalSnapshot(body, cp); err != nil {
		g.err = err
		return dec
	}
	want, err := json.Marshal(dec)
	if err != nil {
		g.err = err
		return dec
	}
	g.out.Snaps = append(g.out.Snaps, cp)
	g.out.Want = append(g.out.Want, want)
	g.out.BodyBytes += float64(len(body))
	return dec
}

// recordStream simulates (key, seed) once under the WIRE policy and returns
// the recorded session.
func recordStream(key string, seed int64) (*stream, error) {
	run, ok := workloads.ByKey(key)
	if !ok {
		return nil, fmt.Errorf("unknown catalogue key %q", key)
	}
	ctrl, err := service.NewPolicyController("wire", nil)
	if err != nil {
		return nil, err
	}
	st := &stream{Key: key, Seed: seed}
	g := &grabber{inner: ctrl, out: st}
	cfg := sim.Config{Cloud: paperSite, Seed: seed, Interference: dist.NewLognormalFromMean(1, 0.05)}
	if _, err := sim.Run(run.Generate(seed), g, cfg); err != nil {
		return nil, fmt.Errorf("recording %s/%d: %w", key, seed, err)
	}
	if g.err != nil {
		return nil, fmt.Errorf("recording %s/%d: %w", key, seed, g.err)
	}
	if len(st.Snaps) == 0 {
		return nil, fmt.Errorf("recording %s/%d: no plans", key, seed)
	}
	st.BodyBytes /= float64(len(st.Snaps))
	return st, nil
}

// recordStreams records perKey sessions of every key, with workflow seeds
// drawn from the driver seed, and returns them in a seeded shuffle so the
// replay order is part of the input too.
func recordStreams(seed int64, keys []string, perKey int) ([]*stream, error) {
	rng := rand.New(rand.NewSource(seed))
	var out []*stream
	for _, key := range keys {
		for i := 0; i < perKey; i++ {
			st, err := recordStream(key, 1+rng.Int63n(1<<31))
			if err != nil {
				return nil, err
			}
			out = append(out, st)
		}
	}
	rng.Shuffle(len(out), func(i, j int) { out[i], out[j] = out[j], out[i] })
	return out, nil
}
