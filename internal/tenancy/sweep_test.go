package tenancy

import (
	"bytes"
	"testing"

	"repro/internal/cloud"
)

// The sweep's rendered table must be byte-identical at any worker count:
// cells land in fixed slots and every cell is deterministic in the seed.
// CI runs this under -race, so hidden cross-cell sharing would also trip
// the detector.
func TestSweepWorkerCountInvariant(t *testing.T) {
	render := func(workers int) []byte {
		t.Helper()
		_, tbl, err := Sweep(SweepConfig{
			Seed:         42,
			Process:      Poisson,
			RatesPerHour: []float64{12, 24},
			N:            24,
			Tenants:      3,
			Keys:         []string{"tpch6-s", "tpch1-s", "pagerank-s"},
			Cloud:        acceptanceCloud(),
			Cap:          6,
			Workers:      workers,
		})
		if err != nil {
			t.Fatal(err)
		}
		var buf bytes.Buffer
		tbl.Render(&buf)
		return buf.Bytes()
	}
	one := render(1)
	eight := render(8)
	if !bytes.Equal(one, eight) {
		t.Errorf("sweep tables differ between 1 and 8 workers:\n--- workers=1 ---\n%s--- workers=8 ---\n%s", one, eight)
	}
}

func TestSweepValidation(t *testing.T) {
	if _, _, err := Sweep(SweepConfig{Seed: 1, Cloud: cloud.Config{SlotsPerInstance: 2, LagTime: 180, ChargingUnit: 900}, Cap: 4}); err == nil {
		t.Error("sweep with no rates accepted")
	}
}

// FCFS cells ignore the budget (budget column 0), arbiter cells share the
// stream's total budget.
func TestSweepBudgetColumns(t *testing.T) {
	cfg := SweepConfig{
		Seed:         42,
		Process:      Poisson,
		RatesPerHour: []float64{24},
		N:            9,
		Tenants:      3,
		Keys:         []string{"tpch6-s"},
		Cloud:        acceptanceCloud(),
		Cap:          6,
		Workers:      2,
	}
	cells, _, err := Sweep(cfg)
	if err != nil {
		t.Fatal(err)
	}
	stream, err := Generate(StreamConfig{
		Seed:          cfg.Seed,
		Process:       cfg.Process,
		N:             cfg.N,
		Tenants:       cfg.Tenants,
		RatePerHour:   cfg.RatesPerHour[0],
		Keys:          cfg.Keys,
		Slots:         cfg.Cloud.SlotsPerInstance,
		LagS:          float64(cfg.Cloud.LagTime),
		ChargingUnitS: float64(cfg.Cloud.ChargingUnit),
	})
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range cells {
		want := stream.TotalBudget()
		if c.Policy == FCFS {
			want = 0
		}
		if c.BudgetUnits != want {
			t.Errorf("policy %s budget %d, want %d", c.Policy, c.BudgetUnits, want)
		}
	}
}
