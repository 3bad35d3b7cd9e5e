package experiments

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"flag"
	"fmt"
	"hash"
	"math"
	"os"
	"reflect"
	"testing"

	"repro/internal/baseline"
	"repro/internal/cloud"
	"repro/internal/core"
	"repro/internal/dist"
	"repro/internal/monitor"
	"repro/internal/sim"
	"repro/internal/workloads"
)

var updateOracle = flag.Bool("update", false, "rewrite testdata/decision_oracle.json from the current build")

// oracleRun is one simulated run's fingerprint: the hash of every plan's
// decision (and, for wire, of every plan's wavefront down to the estimate's
// bits), and the run's counters, makespan and cost.
type oracleRun struct {
	Key       string `json:"key"`
	Seed      int64  `json:"seed"`
	Policy    string `json:"policy"`
	Plans     int    `json:"plans"`
	Decisions string `json:"decisions_sha256"`
	Wavefront string `json:"wavefront_sha256,omitempty"`
	Result    string `json:"result"`
}

type decisionOracle struct {
	Runs []oracleRun `json:"runs"`
	// Grid hashes CostExperiment(Defaults())'s headline and every cell's
	// cost and makespan, the way the sim-grid benchmark digests a grid.
	Grid string `json:"grid_sha256"`
}

// digestCtrl hashes what the controller it wraps decides at every plan.
type digestCtrl struct {
	sim.Controller
	wavefront func() []core.Prediction
	dec, wave hash.Hash
	plans     int
}

func newDigestCtrl(c sim.Controller, wavefront func() []core.Prediction) *digestCtrl {
	return &digestCtrl{Controller: c, wavefront: wavefront, dec: sha256.New(), wave: sha256.New()}
}

func (d *digestCtrl) Plan(snap *monitor.Snapshot) sim.Decision {
	dec := d.Controller.Plan(snap)
	d.plans++
	b, err := json.Marshal(dec)
	if err != nil {
		panic(err)
	}
	fmt.Fprintf(d.dec, "%v %s\n", snap.Now, b)
	if d.wavefront != nil {
		fmt.Fprintf(d.wave, "plan %v\n", snap.Now)
		for _, p := range d.wavefront() {
			fmt.Fprintf(d.wave, "%d %d %x %d\n", p.Task, p.Stage, math.Float64bits(p.EstimatedExec), p.Policy)
		}
	}
	return dec
}

func (d *digestCtrl) record(key string, seed int64, res *sim.Result) oracleRun {
	r := oracleRun{
		Key: key, Seed: seed, Policy: d.Name(), Plans: d.plans,
		Decisions: hex.EncodeToString(d.dec.Sum(nil)),
		Result: fmt.Sprintf("makespan=%v units=%d charged=%v util=%v peak=%d launches=%d restarts=%d failures=%d decisions=%d lost=%d dup=%d doa=%d",
			res.Makespan, res.UnitsCharged, res.ChargedSeconds, res.Utilization, res.PeakPool, res.Launches,
			res.Restarts, res.Failures, res.Decisions, res.OrdersLost, res.OrdersDuplicated, res.DeadOnArrival),
	}
	if d.wavefront != nil {
		r.Wavefront = hex.EncodeToString(d.wave.Sum(nil))
	}
	return r
}

// oracleRuns runs every catalogue workflow under wire, deadline and
// reactive-conserving on the paper's site. The deadline controller aims at
// four fifths of the same run's wire makespan, which makes it scale.
func oracleRuns(t *testing.T) []oracleRun {
	site := cloud.Config{SlotsPerInstance: 4, LagTime: 180, ChargingUnit: 900, MaxInstances: 12}
	var out []oracleRun
	for _, key := range workloads.Keys() {
		run, _ := workloads.ByKey(key)
		for _, seed := range []int64{1, 2} {
			cfg := sim.Config{Cloud: site, Seed: seed, Interference: dist.NewLognormalFromMean(1, 0.05)}
			exec := func(d *digestCtrl) *sim.Result {
				res, err := sim.Run(run.Generate(seed), d, cfg)
				if err != nil {
					t.Fatalf("%s/%d/%s: %v", key, seed, d.Name(), err)
				}
				out = append(out, d.record(key, seed, res))
				return res
			}
			wire := core.New(core.Config{})
			wres := exec(newDigestCtrl(wire, wire.Wavefront))
			exec(newDigestCtrl(core.NewDeadline(core.DeadlineConfig{Deadline: 0.8 * wres.Makespan}), nil))
			exec(newDigestCtrl(&baseline.ReactiveConserving{}, nil))
		}
	}
	return out
}

// TestDecisionOracle holds the simulator-side controllers to the decisions
// recorded in testdata/decision_oracle.json, before their Monitor and
// Analyze steps became incremental: every plan's decision, wire's wavefront,
// each run's counters, and the full Figure 5/6 grid must be unchanged.
func TestDecisionOracle(t *testing.T) {
	got := decisionOracle{Runs: oracleRuns(t)}
	grid, err := CostExperiment(Defaults())
	if err != nil {
		t.Fatal(err)
	}
	h := sha256.New()
	fmt.Fprintf(h, "%+v\n", grid.Headline())
	for _, c := range grid.Cells {
		fmt.Fprintf(h, "%s %s %v %v %v %v %v\n", c.RunKey, c.Policy, c.Unit, c.Summary.CostMean, c.Summary.CostStd, c.Summary.MakespanMean, c.Summary.MakespanStd)
	}
	got.Grid = hex.EncodeToString(h.Sum(nil))

	const path = "testdata/decision_oracle.json"
	if *updateOracle {
		b, err := json.MarshalIndent(got, "", "  ")
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, append(b, '\n'), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	b, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var want decisionOracle
	if err := json.Unmarshal(b, &want); err != nil {
		t.Fatal(err)
	}
	if len(got.Runs) != len(want.Runs) {
		t.Fatalf("%d runs, the oracle has %d", len(got.Runs), len(want.Runs))
	}
	for i := range want.Runs {
		if !reflect.DeepEqual(got.Runs[i], want.Runs[i]) {
			t.Errorf("run %d diverged from the oracle:\n got %+v\nwant %+v", i, got.Runs[i], want.Runs[i])
		}
	}
	if got.Grid != want.Grid {
		t.Errorf("grid digest %s, the oracle has %s", got.Grid, want.Grid)
	}
}
