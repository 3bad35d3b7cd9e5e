// Command wire-benchgate is the benchmark regression gate: it parses
// `go test -bench -benchmem` output, writes the measurements as a
// BENCH_<n>.json trajectory document, and fails (exit 1) when a gated
// benchmark regressed more than the tolerance against the newest checked-in
// trajectory point: the BENCH_<n>.json with the highest n in the working
// directory, unless -baseline names another document.
//
// Usage (how CI invokes it):
//
//	go test -run xxx -bench . -benchmem . ./internal/exec/ ./internal/service/ ./internal/scenario/ |
//	    wire-benchgate -out BENCH_ci.json
//
//	wire-benchgate -baseline BENCH_9.json ...   # gate against an older point
//	wire-benchgate -in bench.txt ...   # read from a file instead of stdin
//	wire-benchgate -gate Bench1,Bench2 -tolerance 0.10
//
// Only ns/op and allocs/op of the -gate benchmarks are gated; everything
// parsed is recorded in -out regardless.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"time"

	"repro/internal/stats"
)

// defaultGate covers the plan-step hot path (BenchmarkTable1 runs the full
// MAPE loop over the paper's Table I workloads), the live dispatcher's lease
// protocol benches, and the journal: live-run replay and the session WAL's
// plan append under each fsync mode.
const defaultGate = "BenchmarkTable1,BenchmarkLeaseProtocol,BenchmarkRunStatus,BenchmarkJournalReplay," +
	"BenchmarkJournalAppendPlan/genome-s/off,BenchmarkJournalAppendPlan/genome-s/interval,BenchmarkJournalAppendPlan/genome-s/record," +
	"BenchmarkJournalAppendPlan/genome-l/off,BenchmarkJournalAppendPlan/genome-l/interval,BenchmarkJournalAppendPlan/genome-l/record"

func main() {
	baseline := flag.String("baseline", "", "baseline document to gate against (default: the highest-numbered BENCH_<n>.json in the working directory)")
	out := flag.String("out", "", "write the parsed measurements as a BENCH_<n>.json document")
	in := flag.String("in", "", "bench output file (default: stdin)")
	gate := flag.String("gate", defaultGate, "comma-separated benchmarks to gate")
	tol := flag.Float64("tolerance", 0.15, "allowed ns/op and allocs/op growth (0.15 = +15%)")
	desc := flag.String("desc", "", "description recorded in -out")
	flag.Parse()

	if err := run(*baseline, *out, *in, *gate, *tol, *desc); err != nil {
		fmt.Fprintln(os.Stderr, "wire-benchgate:", err)
		os.Exit(1)
	}
}

// latestBenchDoc returns the BENCH_<n>.json in dir with the highest n,
// compared as a number (14 > 9); documents without a numeric n
// (BENCH_baseline.json, BENCH_ci.json) are not trajectory points.
func latestBenchDoc(dir string) (string, error) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return "", err
	}
	best, bestN := "", -1
	for _, e := range entries {
		num, ok := strings.CutPrefix(e.Name(), "BENCH_")
		if num, ok = strings.CutSuffix(num, ".json"); !ok {
			continue
		}
		if n, err := strconv.Atoi(num); err == nil && n > bestN {
			best, bestN = e.Name(), n
		}
	}
	if best == "" {
		return "", fmt.Errorf("no BENCH_<n>.json trajectory document in %s to gate against; pass -baseline", dir)
	}
	return filepath.Join(dir, best), nil
}

func run(baseline, out, in, gate string, tol float64, desc string) error {
	if baseline == "" {
		var err error
		if baseline, err = latestBenchDoc("."); err != nil {
			return err
		}
	}
	var src io.Reader = os.Stdin
	if in != "" {
		f, err := os.Open(in)
		if err != nil {
			return err
		}
		defer f.Close()
		src = f
	}
	// Tee the bench output through so the run stays readable in CI logs.
	results, env, err := stats.ParseBenchOutput(io.TeeReader(src, os.Stdout))
	if err != nil {
		return err
	}
	if len(results) == 0 {
		return fmt.Errorf("no benchmark lines found in input")
	}

	if out != "" {
		if desc == "" {
			desc = "Benchmark trajectory document, written by wire-benchgate. Regenerate with: go test -run xxx -bench . -benchmem . ./internal/exec/ ./internal/service/ ./internal/scenario/ | wire-benchgate -out " + out
		}
		doc := stats.BenchDoc{
			Description: desc,
			Date:        time.Now().UTC().Format("2006-01-02"),
			Environment: env,
			Benchmarks:  results,
		}
		f, err := os.Create(out)
		if err != nil {
			return err
		}
		if err := writeDoc(f, &doc); err != nil {
			f.Close()
			return err
		}
		if err := f.Close(); err != nil {
			return err
		}
		fmt.Fprintf(os.Stderr, "wire-benchgate: wrote %d benchmarks to %s\n", len(results), out)
	}

	bf, err := os.Open(baseline)
	if err != nil {
		return err
	}
	defer bf.Close()
	base, err := stats.LoadBenchDoc(bf)
	if err != nil {
		return err
	}

	names := strings.Split(gate, ",")
	for i := range names {
		names[i] = strings.TrimSpace(names[i])
	}
	regs := stats.CompareBench(base.Benchmarks, results, names, tol)
	if len(regs) > 0 {
		for _, r := range regs {
			fmt.Fprintln(os.Stderr, "wire-benchgate: REGRESSION:", r)
		}
		return fmt.Errorf("%d gated benchmark(s) regressed beyond +%.0f%% of %s", len(regs), tol*100, baseline)
	}
	fmt.Fprintf(os.Stderr, "wire-benchgate: %d gated benchmarks within +%.0f%% of %s\n", len(names), tol*100, baseline)
	return nil
}

// writeDoc formats like the hand-maintained BENCH_baseline.json
// (two-space indent, trailing newline).
func writeDoc(w io.Writer, doc *stats.BenchDoc) error {
	b, err := json.MarshalIndent(doc, "", "  ")
	if err != nil {
		return err
	}
	_, err = w.Write(append(b, '\n'))
	return err
}
