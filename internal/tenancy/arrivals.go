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

	// SlackLo/SlackHi bound the uniform deadline-slack multiplier over the
	// nominal span (defaults 1.5 and 4).
	SlackLo, SlackHi float64
	// BudgetLo/BudgetHi bound the uniform budget factor over the estimated
	// cost (defaults 1 and 2).
	BudgetLo, BudgetHi float64

	// Site reference for deadline/cost estimates: slots per instance, the
	// reference pool size, the pool-change lag, and the charging unit
	// (defaults 4, 4, 180s, 900s — the paper's site).
	Slots         int
	RefInstances  int
	LagS          float64
	ChargingUnitS float64

	// BurstMean is the mean burst size of the burst process (default 4).
	BurstMean float64
	// DiurnalPeriodS is the diurnal modulation period (default 21600s).
	DiurnalPeriodS float64
}

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
	if c.SlackLo <= 0 {
		c.SlackLo = 1.5
	}
	if c.SlackHi <= c.SlackLo {
		c.SlackHi = c.SlackLo + 2.5
	}
	if c.BudgetLo <= 0 {
		c.BudgetLo = 1
	}
	if c.BudgetHi <= c.BudgetLo {
		c.BudgetHi = c.BudgetLo + 1
	}
	if c.Slots <= 0 {
		c.Slots = 4
	}
	if c.RefInstances <= 0 {
		c.RefInstances = 4
	}
	if c.LagS <= 0 {
		c.LagS = 180
	}
	if c.ChargingUnitS <= 0 {
		c.ChargingUnitS = 900
	}
	if c.BurstMean < 1 {
		c.BurstMean = 4
	}
	if c.DiurnalPeriodS <= 0 {
		c.DiurnalPeriodS = 21600
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
			slack := cfg.SlackLo + rng.Float64()*(cfg.SlackHi-cfg.SlackLo)
			span := NominalSpanS(run.Spec, cfg.RefInstances, cfg.Slots) + 2*cfg.LagS
			factor := cfg.BudgetLo + rng.Float64()*(cfg.BudgetHi-cfg.BudgetLo)
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
		// Bursts of mean size BurstMean separated by exponential gaps whose
		// rate keeps the long-run arrival rate at cfg.RatePerHour; arrivals
		// inside a burst are seconds apart.
		gapRate := rate / cfg.BurstMean
		for len(out) < n {
			t += rng.ExpFloat64() / gapRate
			size := 1 + rng.Intn(2*int(cfg.BurstMean)-1)
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
			lambda := rate * (1 + 0.9*math.Sin(2*math.Pi*t/cfg.DiurnalPeriodS))
			if rng.Float64()*peak < lambda {
				out = append(out, t)
			}
		}
	}
	return out
}
