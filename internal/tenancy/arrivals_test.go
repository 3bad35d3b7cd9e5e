package tenancy

import (
	"reflect"
	"testing"

	"repro/internal/workloads"
)

// processes are the arrival processes Generate supports.
var processes = []string{Poisson, Burst, Diurnal}

func testStreamConfig(process string, rate float64) StreamConfig {
	return StreamConfig{
		Seed:          42,
		Process:       process,
		N:             51,
		Tenants:       3,
		RatePerHour:   rate,
		Keys:          []string{"tpch6-s", "tpch1-s", "pagerank-s"},
		Slots:         2,
		LagS:          180,
		ChargingUnitS: 900,
	}
}

// Identical configuration must yield an identical stream, bit for bit — the
// determinism pin for the whole arrival subsystem (per-tenant rngs are derived
// with splitmix64 from (seed, process, tenant), so generation order cannot
// leak in).
func TestGenerateDeterministic(t *testing.T) {
	for _, process := range processes {
		a, err := Generate(testStreamConfig(process, 24))
		if err != nil {
			t.Fatalf("%s: %v", process, err)
		}
		b, err := Generate(testStreamConfig(process, 24))
		if err != nil {
			t.Fatalf("%s: %v", process, err)
		}
		if !reflect.DeepEqual(a, b) {
			t.Errorf("%s: two generations of the same config differ", process)
		}
	}
}

func TestGenerateShape(t *testing.T) {
	for _, process := range processes {
		s, err := Generate(testStreamConfig(process, 24))
		if err != nil {
			t.Fatalf("%s: %v", process, err)
		}
		if len(s.Arrivals) != 51 {
			t.Fatalf("%s: got %d arrivals, want 51", process, len(s.Arrivals))
		}
		tenants := map[string]bool{}
		for _, a := range s.Arrivals {
			tenants[a.Tenant] = true
		}
		if len(tenants) != 3 {
			t.Errorf("%s: got tenants %v, want 3", process, tenants)
		}
		for i, a := range s.Arrivals {
			if a.Index != i {
				t.Fatalf("%s: arrival %d has index %d", process, i, a.Index)
			}
			if i > 0 && a.Time < s.Arrivals[i-1].Time {
				t.Fatalf("%s: arrivals not sorted at %d", process, i)
			}
			if a.Time < 0 {
				t.Errorf("%s: arrival %d at negative time %v", process, i, a.Time)
			}
			if a.DeadlineS <= 0 {
				t.Errorf("%s: arrival %d has non-positive deadline %v", process, i, a.DeadlineS)
			}
			if a.BudgetUnits < 1 {
				t.Errorf("%s: arrival %d has budget %d < 1", process, i, a.BudgetUnits)
			}
			if _, ok := workloads.ByKey(a.WorkflowKey); !ok {
				t.Errorf("%s: arrival %d has unknown workload %q", process, i, a.WorkflowKey)
			}
		}
		if s.TotalBudget() < 51 {
			t.Errorf("%s: total budget %d below one unit per arrival", process, s.TotalBudget())
		}
	}
}

func TestGenerateSeedsDiffer(t *testing.T) {
	a, err := Generate(testStreamConfig(Poisson, 24))
	if err != nil {
		t.Fatal(err)
	}
	cfg := testStreamConfig(Poisson, 24)
	cfg.Seed = 43
	b, err := Generate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if reflect.DeepEqual(a.Arrivals, b.Arrivals) {
		t.Error("different seeds produced identical streams")
	}
}

func TestGenerateRejectsBadConfig(t *testing.T) {
	cfg := testStreamConfig("lumpy", 24)
	if _, err := Generate(cfg); err == nil {
		t.Error("unknown process accepted")
	}
	cfg = testStreamConfig(Poisson, 24)
	cfg.Keys = []string{"no-such-workflow"}
	if _, err := Generate(cfg); err == nil {
		t.Error("unknown workload key accepted")
	}
	cfg = testStreamConfig(Poisson, 0)
	if _, err := Generate(cfg); err == nil {
		t.Error("zero rate accepted")
	}
}
