package main

import (
	"encoding/json"
	"flag"
	"os"
	"path/filepath"
	"regexp"
	"runtime"
	"testing"
	"time"
)

// benchmarkJSON mirrors BENCHMARK.json.
type benchmarkJSON struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name   string `json:"name"`
		Unit   string `json:"unit"`
		Better string `json:"better"`
	} `json:"per_layer"`
}

func readBenchmarkJSON(t *testing.T) benchmarkJSON {
	t.Helper()
	b, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var doc benchmarkJSON
	if err := json.Unmarshal(b, &doc); err != nil {
		t.Fatal(err)
	}
	return doc
}

var (
	nameRE = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unitRE = regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
)

// BENCHMARK.json is what the outside world reads; spec.go is what the driver
// emits. They must say the same thing, in the same order.
func TestSpecMatchesBenchmarkJSON(t *testing.T) {
	doc := readBenchmarkJSON(t)
	if len(doc.Workloads) != len(workloadOrder) {
		t.Fatalf("BENCHMARK.json has %d workloads, the driver %d", len(doc.Workloads), len(workloadOrder))
	}
	for i, w := range doc.Workloads {
		if w.Name != workloadOrder[i] {
			t.Errorf("workload %d is %q in BENCHMARK.json, %q in the driver", i, w.Name, workloadOrder[i])
		}
		if workloadFuncs[w.Name] == nil {
			t.Errorf("workload %q has no implementation", w.Name)
		}
		if len(w.Why) == 0 || len(w.Why) > 200 {
			t.Errorf("workload %q: why is %d characters", w.Name, len(w.Why))
		}
	}
	if len(doc.EndToEnd) != len(endToEnd) || len(doc.PerLayer) != len(perLayer) {
		t.Fatalf("BENCHMARK.json has %d+%d metrics, the driver %d+%d", len(doc.EndToEnd), len(doc.PerLayer), len(endToEnd), len(perLayer))
	}
	seen := map[string]bool{}
	check := func(name, unit, better string) {
		if !nameRE.MatchString(name) {
			t.Errorf("metric name %q is outside [A-Za-z0-9_.-]", name)
		}
		if !unitRE.MatchString(unit) {
			t.Errorf("metric %s: unit %q is outside the allowed characters", name, unit)
		}
		if better != "lower" && better != "higher" {
			t.Errorf("metric %s: better is %q", name, better)
		}
		if seen[name] {
			t.Errorf("metric name %q is used twice", name)
		}
		seen[name] = true
	}
	for i, m := range doc.EndToEnd {
		d := endToEnd[i]
		if m.Name != d.Name || m.Unit != d.Unit || m.Better != d.Better || m.Bound != d.Bound {
			t.Errorf("end-to-end metric %d: BENCHMARK.json %+v, driver %+v", i, m, d)
		}
		if m.Bound <= 0 || m.Bound > 0.25 {
			t.Errorf("metric %s: bound %g is outside (0, 0.25]", m.Name, m.Bound)
		}
		check(m.Name, m.Unit, m.Better)
	}
	for i, m := range doc.PerLayer {
		d := perLayer[i]
		if m.Name != d.Name || m.Unit != d.Unit || m.Better != d.Better {
			t.Errorf("per-layer metric %d: BENCHMARK.json %+v, driver %+v", i, m, d)
		}
		check(m.Name, m.Unit, m.Better)
	}
	if !seen["setup_s"] {
		t.Error("setup_s is missing")
	}
}

// smokeWindow is the smoke test's timed window; a traced run gets three of
// them. Under the race detector everything is an order of magnitude slower:
// go test -race -window 15s .
var smokeWindow = flag.Duration("window", time.Second, "timed window of the smoke test")

// unreached are README.md's no-change predictions, checked on this commit's
// own numbers: a workload reports zero for a layer its requests never reach.
var unreached = map[string][]string{
	"sim-grid": {
		"service.client.plan_ms", "service.client.transport_ms", "service.handler_ms", "net.loopback_ms",
		"monitor.snapshot_encode_ms", "monitor.snapshot_decode_ms", "service.planresp_encode_us",
		"service.journal.append_ms", "service.journal.interval_ms", "service.journal.fsync_record_ms",
		"wal_bytes_per_plan", "cluster.router_ms", "failover_ms", "drain_ms_per_session",
	},
	"plan-direct-large": {
		"cluster.router_ms", "cluster.router.self_ms", "cluster.router.upstream_ms", "cluster.ring.owner_ns",
		"service.journal.fsync_record_ms", "service.tenants.admit_ns", "service.tenants.admit_throttled_ns",
		"service.tenants.observe_plan_ns", "service.tenants.throttled_frac", "failover_ms", "drain_ms_per_session",
		"sim_runs_per_s", "stream_arrivals_per_s",
	},
	"plan-fleet-small": {"service.journal.interval_ms", "failover_ms", "drain_ms_per_session", "sim_runs_per_s"},
	"fleet-failover":   {"service.journal.fsync_record_ms", "service.tenants.throttled_frac", "sim_runs_per_s"},
}

// Every workload, at a window far too short to measure anything, must still
// emit exactly the declared metric names and fail no operation.
func TestWorkloadsSmoke(t *testing.T) {
	for _, trace := range []bool{false, true} {
		for _, w := range workloadOrder {
			name := w
			if trace {
				name += "/trace"
			}
			t.Run(name, func(t *testing.T) {
				window := *smokeWindow
				if trace {
					// A traced run spends two thirds of its window in the
					// loop and needs two pairs of simulator phases there.
					window *= 3
				}
				dir := t.TempDir()
				res, err := runWorkload(runConfig{
					Workload: w, Seed: 5, Window: window, Warm: 200 * time.Millisecond, Trace: trace,
					Dir: filepath.Join(dir, "run"), OutDir: filepath.Join(dir, "out"), Workers: runtime.GOMAXPROCS(0),
				})
				if err != nil {
					t.Fatal(err)
				}
				if res.Failed != 0 || res.Attempted < 1 {
					t.Errorf("attempted %d, failed %d: %v", res.Attempted, res.Failed, res.Errs)
				}
				defs := endToEnd
				if trace {
					defs = perLayer
				}
				if len(res.Metrics) != len(defs) {
					t.Errorf("%d metrics emitted, %d declared", len(res.Metrics), len(defs))
				}
				for _, d := range defs {
					v, ok := res.Metrics[d.Name]
					if !ok {
						t.Errorf("metric %s not emitted", d.Name)
					}
					if !trace && v <= 0 {
						t.Errorf("end-to-end metric %s = %g, want > 0", d.Name, v)
					}
				}
				if trace && res.Metrics["failed_frac"] != 0 {
					t.Errorf("failed_frac = %g", res.Metrics["failed_frac"])
				}
				if trace {
					for _, name := range unreached[w] {
						if v := res.Metrics[name]; v != 0 {
							t.Errorf("%s reports %s = %g, want 0: its requests never reach that layer", w, name, v)
						}
					}
				}
			})
		}
	}
}
