// Command wire-workflows prints the Table I workload characterization
// (generated vs paper) and drives the multi-tenant arrival-stream subsystem
// (internal/tenancy).
//
// Usage:
//
//	wire-workflows [-seed N]            # Table I, generated vs paper
//	wire-workflows -stream              # generate an arrival stream as CSV
//	wire-workflows -replay FILE         # replay a stream CSV through the
//	                                    # multi-run simulator per policy
//	wire-workflows -sweep               # arrival-rate x policy sweep table
//
// Streams draw tpch6-s, tpch1-s and pagerank-s at 24 arrivals per tenant per
// hour; replays and sweeps share a 6-instance site under every arbiter
// policy.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"strconv"
	"strings"

	"repro/internal/cloud"
	"repro/internal/experiments"
	"repro/internal/report"
	"repro/internal/simtime"
	"repro/internal/tenancy"
)

func main() {
	seed := flag.Int64("seed", 1, "workload generation seed")
	stream := flag.Bool("stream", false, "generate a multi-tenant arrival stream and emit it as a trace CSV")
	replay := flag.String("replay", "", "replay a stream CSV (path, or - for stdin) through the multi-run simulator")
	sweep := flag.Bool("sweep", false, "run the arrival-rate x arbiter-policy sweep")
	n := flag.Int("n", 51, "arrivals per stream (-stream/-sweep)")
	tenants := flag.Int("tenants", 3, "tenants per stream (-stream/-sweep)")
	arrivals := flag.String("arrivals", tenancy.Poisson, "arrival process: "+strings.Join(tenancy.Processes(), "|"))
	rates := flag.String("rates", "12,24,48", "comma-separated per-tenant rates (-sweep)")
	budget := flag.Int("budget", 0, "shared budget in charging units; 0 derives it from the stream's draws")
	workers := flag.Int("workers", 0, "sweep worker pool (0 = GOMAXPROCS)")
	flag.Parse()

	if *stream || *replay != "" || *sweep {
		err := runStreamMode(streamOpts{
			stream: *stream, replay: *replay, sweep: *sweep,
			seed: *seed, n: *n, tenants: *tenants, process: *arrivals,
			rates: *rates, budget: *budget, workers: *workers,
		})
		if err != nil {
			fmt.Fprintln(os.Stderr, "wire-workflows:", err)
			os.Exit(1)
		}
		return
	}

	cfg := experiments.Defaults()
	cfg.Seed = *seed
	if err := experiments.Table1Report(experiments.Table1(cfg)).Render(os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "wire-workflows:", err)
		os.Exit(1)
	}
}

// streamOpts carries the tenancy-mode flag values.
type streamOpts struct {
	stream  bool
	replay  string
	sweep   bool
	seed    int64
	n       int
	tenants int
	process string
	rates   string
	budget  int
	workers int
}

// The stream modes' fixed workload: the keys a stream draws, the per-tenant
// arrival rate of -stream, and the shared site cap of -replay and -sweep.
var streamKeys = []string{"tpch6-s", "tpch1-s", "pagerank-s"}

const (
	streamRatePerHour = 24
	streamCap         = 6
)

// streamSite is the shared-site template the stream modes simulate against:
// small instances and a tight cap, so the cross-run arbiter has something to
// arbitrate even at modest arrival counts.
func streamSite() cloud.Config {
	return cloud.Config{
		SlotsPerInstance: 2,
		LagTime:          3 * simtime.Minute,
		ChargingUnit:     15 * simtime.Minute,
		MaxInstances:     6,
	}
}

// runStreamMode dispatches the tenancy modes: -stream (generate + export),
// -replay (trace import through the multi-run simulator), -sweep.
func runStreamMode(o streamOpts) error {
	site := streamSite()
	switch {
	case o.stream:
		s, err := tenancy.Generate(tenancy.StreamConfig{
			Seed:          o.seed,
			Process:       o.process,
			N:             o.n,
			Tenants:       o.tenants,
			RatePerHour:   streamRatePerHour,
			Keys:          streamKeys,
			Slots:         site.SlotsPerInstance,
			LagS:          float64(site.LagTime),
			ChargingUnitS: float64(site.ChargingUnit),
		})
		if err != nil {
			return err
		}
		return tenancy.WriteStreamCSV(os.Stdout, s)

	case o.replay != "":
		var in io.Reader = os.Stdin
		if o.replay != "-" {
			f, err := os.Open(o.replay)
			if err != nil {
				return err
			}
			defer f.Close()
			in = f
		}
		s, err := tenancy.ReadStreamCSV(in)
		if err != nil {
			return err
		}
		return replayStream(s, o, site)

	default: // -sweep
		var rateList []float64
		for _, part := range splitList(o.rates) {
			r, err := strconv.ParseFloat(part, 64)
			if err != nil {
				return fmt.Errorf("bad -rates entry %q: %w", part, err)
			}
			rateList = append(rateList, r)
		}
		_, tbl, err := tenancy.Sweep(tenancy.SweepConfig{
			Seed:         o.seed,
			Process:      o.process,
			RatesPerHour: rateList,
			N:            o.n,
			Tenants:      o.tenants,
			Keys:         streamKeys,
			Cloud:        site,
			Cap:          streamCap,
			BudgetUnits:  o.budget,
			Workers:      o.workers,
		})
		if err != nil {
			return err
		}
		return tbl.Render(os.Stdout)
	}
}

// replayStream runs an imported trace under each requested arbiter policy
// and renders the per-policy comparison — the paired design on one stream.
func replayStream(s *tenancy.Stream, o streamOpts, site cloud.Config) error {
	tbl := &report.Table{
		Title: fmt.Sprintf("Trace replay: %d arrivals x %d tenants, cap %d (sim seed %d)",
			len(s.Arrivals), len(s.Tenants()), streamCap, o.seed),
		Headers: []string{"policy", "budget_u", "misses", "miss_rate", "units",
			"peak_held", "throttled", "q_delay_s", "makespan_s"},
	}
	for _, policy := range tenancy.Policies() {
		budget := o.budget
		if budget <= 0 {
			budget = s.TotalBudget()
		}
		if policy == tenancy.FCFS {
			budget = 0 // the no-arbiter baseline ignores the budget
		}
		res, err := tenancy.RunStream(s, tenancy.MultiConfig{
			Cloud: site,
			Arbiter: tenancy.ArbiterConfig{
				Policy:      policy,
				Cap:         streamCap,
				BudgetUnits: budget,
			},
			SimSeed: o.seed,
		})
		if err != nil {
			return fmt.Errorf("policy %s: %w", policy, err)
		}
		tbl.AddRow(policy, budget, res.Misses, report.F(res.MissRate(), 3),
			res.TotalUnits, res.PeakHeld, res.ThrottledAdmissions,
			report.F(res.QueueDelayMeanS, 1), report.F(res.MakespanS, 0))
	}
	return tbl.Render(os.Stdout)
}

// splitList splits a comma-separated flag into trimmed non-empty parts.
func splitList(s string) []string {
	var out []string
	for _, part := range strings.Split(s, ",") {
		if part = strings.TrimSpace(part); part != "" {
			out = append(out, part)
		}
	}
	return out
}
