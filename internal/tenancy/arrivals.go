package tenancy

import (
	"fmt"
	"math"
	"math/rand"

	"repro/internal/dist"
	"repro/internal/simtime"
	"repro/internal/workloads"
)

// Arrival process names.
const (
	Poisson = "poisson"
	Burst   = "burst"
	Diurnal = "diurnal"
)

// StreamConfig parameterizes stream generation. The zero value is invalid;
// withDefaults fills everything but Seed, N, and RatePerHour.
type StreamConfig struct {
	// Seed is the base seed; every tenant derives its own splitmix64
	// substream from (Seed, Process, tenant index).
	Seed int64
	// Process is one of poisson, burst, or diurnal.
	Process string
	// N is the total number of arrivals across all tenants.
	N int
	// Tenants is the number of tenant streams (default 1). Arrivals are
	// split evenly, earlier tenants taking the remainder.
	Tenants int
	// RatePerHour is each tenant's mean arrival rate.
	RatePerHour float64
	// Keys are the catalog keys drawn uniformly per arrival (default: the
	// full catalog).
	Keys []string

	// Site reference for deadline/cost estimates: slots per instance, the
	// pool-change lag, and the charging unit (defaults 4, 180s, 900s — the
	// paper's site).
	Slots         int
	LagS          float64
	ChargingUnitS float64
}

// The shape of every stream: a deadline is the nominal span on refInstances
// instances times a slack drawn uniformly from [slackLo, slackHi), a budget
// the estimated cost times a factor drawn uniformly from [budgetLo, budgetHi);
// the burst process draws bursts of mean size burstMean, and the diurnal
// process modulates its rate over diurnalPeriodS seconds.
const (
	slackLo, slackHi   = 1.5, 4.0
	budgetLo, budgetHi = 1.0, 2.0
	refInstances       = 4
	burstMean          = 4.0
	diurnalPeriodS     = 21600.0
)

func (c StreamConfig) withDefaults() StreamConfig {
	if c.Process == "" {
		c.Process = Poisson
	}
	if c.Tenants <= 0 {
		c.Tenants = 1
	}
	if len(c.Keys) == 0 {
		c.Keys = workloads.Keys()
	}
	if c.Slots <= 0 {
		c.Slots = 4
	}
	if c.LagS <= 0 {
		c.LagS = 180
	}
	if c.ChargingUnitS <= 0 {
		c.ChargingUnitS = 900
	}
	return c
}

// Generate builds a deterministic multi-tenant arrival stream. Every tenant
// draws from its own rng seeded by (Seed, Process, tenant), so the merged
// stream is independent of generation order and worker count.
func Generate(cfg StreamConfig) (*Stream, error) {
	cfg = cfg.withDefaults()
	if cfg.N <= 0 {
		return nil, fmt.Errorf("tenancy: stream needs N > 0 arrivals")
	}
	if cfg.RatePerHour <= 0 {
		return nil, fmt.Errorf("tenancy: stream needs a positive arrival rate")
	}
	switch cfg.Process {
	case Poisson, Burst, Diurnal:
	default:
		return nil, fmt.Errorf("tenancy: unknown arrival process %q", cfg.Process)
	}
	runs := make([]workloads.Run, len(cfg.Keys))
	for i, key := range cfg.Keys {
		run, ok := workloads.ByKey(key)
		if !ok {
			return nil, fmt.Errorf("tenancy: unknown workload key %q", key)
		}
		runs[i] = run
	}

	arrivals := make([]Arrival, 0, cfg.N)
	for t := 0; t < cfg.Tenants; t++ {
		n := cfg.N / cfg.Tenants
		if t < cfg.N%cfg.Tenants {
			n++
		}
		if n == 0 {
			continue
		}
		tenant := fmt.Sprintf("t%d", t)
		rng := rand.New(rand.NewSource(dist.DeriveSeed(cfg.Seed, "arrivals", dist.Label(cfg.Process), uint64(t))))
		times := arrivalTimes(rng, cfg, n)
		for _, at := range times {
			run := runs[rng.Intn(len(runs))]
			slack := slackLo + rng.Float64()*(slackHi-slackLo)
			span := NominalSpanS(run.Spec, refInstances, cfg.Slots) + 2*cfg.LagS
			factor := budgetLo + rng.Float64()*(budgetHi-budgetLo)
			cost := estCostUnits(run.Spec, cfg.Slots, simtime.Duration(cfg.ChargingUnitS))
			arrivals = append(arrivals, Arrival{
				Tenant:       tenant,
				Time:         simtime.Time(at),
				WorkflowKey:  run.Key,
				WorkflowSeed: rng.Int63(),
				DeadlineS:    slack * span,
				BudgetUnits:  int(math.Ceil(factor * float64(cost))),
			})
		}
	}
	sortArrivals(arrivals)
	return &Stream{Seed: cfg.Seed, Process: cfg.Process, Arrivals: arrivals}, nil
}

// arrivalTimes draws n arrival instants for one tenant.
func arrivalTimes(rng *rand.Rand, cfg StreamConfig, n int) []float64 {
	rate := cfg.RatePerHour / 3600 // arrivals per second
	out := make([]float64, 0, n)
	t := 0.0
	switch cfg.Process {
	case Poisson:
		for len(out) < n {
			t += rng.ExpFloat64() / rate
			out = append(out, t)
		}
	case Burst:
		// Bursts of mean size burstMean separated by exponential gaps whose
		// rate keeps the long-run arrival rate at cfg.RatePerHour; arrivals
		// inside a burst are seconds apart.
		gapRate := rate / burstMean
		for len(out) < n {
			t += rng.ExpFloat64() / gapRate
			size := 1 + rng.Intn(2*int(burstMean)-1)
			bt := t
			for i := 0; i < size && len(out) < n; i++ {
				if i > 0 {
					bt += rng.ExpFloat64() * 2
				}
				out = append(out, bt)
			}
			if bt > t {
				t = bt
			}
		}
	case Diurnal:
		// Thinning against lambda(t) = rate*(1 + 0.9 sin(2 pi t/period)):
		// candidates arrive at the peak rate and survive proportionally.
		peak := rate * 1.9
		for len(out) < n {
			t += rng.ExpFloat64() / peak
			lambda := rate * (1 + 0.9*math.Sin(2*math.Pi*t/diurnalPeriodS))
			if rng.Float64()*peak < lambda {
				out = append(out, t)
			}
		}
	}
	return out
}
