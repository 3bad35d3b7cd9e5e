// Command bench is the repository's benchmark: four workloads over the WIRE
// reproduction, measured from outside through public functions and seams.
// BENCHMARK.json at the repository root names the command, the workloads and
// every metric; README.md in this directory says what each one means.
//
//	bench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//
// prints a human-readable report and, as the last line of standard output,
// one JSON object {"correct","attempted","failed","metrics"}.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"strconv"
	"strings"
	"time"
)

// callers is the number of closed-loop client goroutines (and so of client
// connections). MAPE callers wait for their decision, so closed loop is the
// honest model. One caller, not one per core: client, router and shards
// share this process, and with both of two cores saturated the run-to-run
// spread of every rate and latency was 6-8 % (measured), against 2-3 % with
// one core left for the garbage collector, the netpoller and the kernel.
const callers = 1

// slices is how many equal parts the timed window is cut into; a rate is the
// median part.
const slices = 6

// runConfig is one benchmark invocation.
type runConfig struct {
	Workload string
	Seed     int64
	Window   time.Duration
	Warm     time.Duration
	Trace    bool
	// Dir is a private scratch directory (journals); removed afterwards.
	Dir string
	// OutDir receives trace-<workload>.json from a traced run.
	OutDir string
	// Workers is the simulator grid's worker count.
	Workers int
}

// runResult is what a workload hands back.
type runResult struct {
	Attempted int64
	Failed    int64
	Errs      []string
	// Metrics holds every end-to-end metric (untraced run) or the
	// workload's per-layer metrics (traced run; absent ones are layers the
	// workload does not touch and are reported as 0).
	Metrics map[string]float64
	// Notes are extra human-readable lines (sample counts, budget table).
	Notes []string
}

func (r *runResult) note(format string, args ...any) {
	r.Notes = append(r.Notes, fmt.Sprintf(format, args...))
}

type workloadFunc func(cfg runConfig) (*runResult, error)

var workloadFuncs = map[string]workloadFunc{
	"sim-grid":          runSimGrid,
	"plan-direct-large": runPlanDirectLarge,
	"plan-fleet-small":  runPlanFleetSmall,
	"fleet-failover":    runFleetFailover,
}

// runWorkload runs one workload in a fresh scratch directory and completes
// the metric set the mode calls for.
func runWorkload(cfg runConfig) (*runResult, error) {
	fn, ok := workloadFuncs[cfg.Workload]
	if !ok {
		return nil, fmt.Errorf("unknown workload %q (known: %s)", cfg.Workload, strings.Join(workloadOrder, ", "))
	}
	if err := os.MkdirAll(cfg.Dir, 0o755); err != nil {
		return nil, err
	}
	defer os.RemoveAll(cfg.Dir)
	rss := startRSSSampler()
	res, err := fn(cfg)
	rssP90 := rss.finish(0.9)
	if err != nil {
		return nil, err
	}
	defs := endToEnd
	if cfg.Trace {
		defs = perLayer
		res.Metrics["failed_frac"] = float64(res.Failed) / float64(max(res.Attempted, 1))
		res.Metrics["proc.peak_rss_mb"] = peakRSSMB()
	} else {
		res.Metrics["rss_p90_mb"] = rssP90
	}
	out := make(map[string]float64, len(defs))
	for _, d := range defs {
		v, ok := res.Metrics[d.Name]
		if !ok && !cfg.Trace {
			return nil, fmt.Errorf("workload %s did not measure %s", cfg.Workload, d.Name)
		}
		out[d.Name] = v
	}
	for name := range res.Metrics {
		if _, ok := out[name]; !ok {
			return nil, fmt.Errorf("workload %s measured %s, which is not a declared metric", cfg.Workload, name)
		}
	}
	res.Metrics = out
	return res, nil
}

// setupMedian runs setup at least three times, and on until a second has
// gone into it (nine times at most), tearing all but the last down again. It
// returns the last one's product with the median wall time: one set-up, a
// fifth of a second on the small workloads, is too short a sample to gate on.
func setupMedian[T any](setup func(i int) (T, func(), error)) (T, func(), float64, error) {
	var (
		last  T
		undo  func()
		times []float64
		spent float64
	)
	for i := 0; i < 3 || (spent < 1 && i < 9); i++ {
		if undo != nil {
			undo()
		}
		t0 := time.Now()
		v, u, err := setup(i)
		if err != nil {
			var zero T
			return zero, nil, 0, err
		}
		times = append(times, time.Since(t0).Seconds())
		spent += times[i]
		last, undo = v, u
	}
	return last, undo, median(times), nil
}

// peakRSSMB reads VmHWM, the process's peak resident set, in MiB.
func peakRSSMB() float64 {
	b, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0
	}
	for _, line := range strings.Split(string(b), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			f := strings.Fields(rest)
			if len(f) > 0 {
				kb, _ := strconv.ParseFloat(f[0], 64)
				return kb / 1024
			}
		}
	}
	return 0
}

// report prints the metric table and returns the contract's result object.
func report(cfg runConfig, res *runResult) map[string]any {
	defs := endToEnd
	if cfg.Trace {
		defs = perLayer
	}
	fmt.Printf("workload %s  seed %d  window %v  trace %v\n", cfg.Workload, cfg.Seed, cfg.Window, cfg.Trace)
	for _, n := range res.Notes {
		fmt.Println(n)
	}
	fmt.Printf("%-44s %16s  %-8s %s\n", "metric", "value", "unit", "better")
	metrics := make(map[string]any, len(defs))
	for _, d := range defs {
		v := res.Metrics[d.Name]
		bound := ""
		if d.Bound > 0 {
			bound = fmt.Sprintf("  (may worsen by %.0f%%)", d.Bound*100)
		}
		fmt.Printf("%-44s %16.6g  %-8s %s%s\n", d.Name, v, d.Unit, d.Better, bound)
		metrics[d.Name] = map[string]any{"value": v, "unit": d.Unit}
	}
	for _, e := range res.Errs {
		fmt.Println("failed operation:", e)
	}
	fmt.Printf("attempted %d  failed %d\n", res.Attempted, res.Failed)
	return map[string]any{
		"correct":   res.Failed == 0,
		"attempted": res.Attempted,
		"failed":    res.Failed,
		"metrics":   metrics,
	}
}

func main() {
	workload := flag.String("workload", "", "workload to run: "+strings.Join(workloadOrder, ", "))
	seed := flag.Int64("seed", 1, "input seed; the same seed gives the same inputs")
	seconds := flag.Float64("seconds", 15, "length of the timed window")
	trace := flag.Int("trace", 0, "1 = traced run reporting per-layer metrics, 0 = end-to-end metrics")
	aa := flag.Bool("aa", false, "run every workload twice on one seed and once on a held-out seed, and compare")
	dir := flag.String("dir", ".bench_build/run", "scratch directory for journals")
	out := flag.String("out", filepath.Join("bench", "out"), "directory for trace-<workload>.json")
	flag.Parse()
	if flag.NArg() > 0 {
		fmt.Fprintf(os.Stderr, "bench: unexpected argument %q\n", flag.Arg(0))
		os.Exit(2)
	}
	base := runConfig{
		Seed:    *seed,
		Window:  time.Duration(*seconds * float64(time.Second)),
		Warm:    2 * time.Second,
		Trace:   *trace != 0,
		Dir:     filepath.Join(*dir, strconv.Itoa(os.Getpid())),
		OutDir:  *out,
		Workers: runtime.GOMAXPROCS(0),
	}
	if base.Window <= 0 {
		fmt.Fprintln(os.Stderr, "bench: --seconds must be positive")
		os.Exit(2)
	}
	if *aa {
		os.Exit(runAA(base))
	}
	base.Workload = *workload
	res, err := runWorkload(base)
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		os.Exit(1)
	}
	line, err := json.Marshal(report(base, res))
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		os.Exit(1)
	}
	fmt.Println(string(line))
}
