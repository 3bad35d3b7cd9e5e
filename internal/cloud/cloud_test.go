package cloud

import (
	"errors"
	"testing"
	"testing/quick"
)

func newSite(t *testing.T, cfg Config) *Site {
	t.Helper()
	s, err := NewSite(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

func defaultCfg() Config {
	return Config{SlotsPerInstance: 4, LagTime: 180, ChargingUnit: 3600, MaxInstances: 12}
}

func TestConfigValidate(t *testing.T) {
	bad := []Config{
		{SlotsPerInstance: 0, ChargingUnit: 60},
		{SlotsPerInstance: 1, ChargingUnit: 0},
		{SlotsPerInstance: 1, ChargingUnit: 60, LagTime: -1},
		{SlotsPerInstance: 1, ChargingUnit: 60, MaxInstances: -2},
	}
	for i, c := range bad {
		if _, err := NewSite(c); err == nil {
			t.Errorf("config %d should be rejected", i)
		}
	}
	if _, err := NewSite(defaultCfg()); err != nil {
		t.Fatal(err)
	}
}

func TestLaunchLifecycle(t *testing.T) {
	s := newSite(t, defaultCfg())
	in, err := s.Launch(100)
	if err != nil {
		t.Fatal(err)
	}
	if in.State != Pending || in.ActiveAt != 280 || in.Slots != 4 {
		t.Fatalf("launch state: %+v", in)
	}
	if in.UsableAt(200) {
		t.Fatal("usable before activation time")
	}
	if err := s.Activate(in, 280); err != nil {
		t.Fatal(err)
	}
	if !in.UsableAt(280) || !in.UsableAt(1e6) {
		t.Fatal("active instance should be usable")
	}
	if err := s.Terminate(in, 4000); err != nil {
		t.Fatal(err)
	}
	if in.UsableAt(4000) || !in.UsableAt(3999) {
		t.Fatal("termination boundary wrong")
	}
	if s.Held() != 0 {
		t.Fatalf("Held = %d after terminate", s.Held())
	}
}

func TestActivateErrors(t *testing.T) {
	s := newSite(t, defaultCfg())
	in, _ := s.Launch(0)
	if err := s.Activate(in, 100); err == nil {
		t.Fatal("activation before ready time must fail")
	}
	if err := s.Activate(in, 180); err != nil {
		t.Fatal(err)
	}
	if err := s.Activate(in, 200); err == nil {
		t.Fatal("double activation must fail")
	}
}

func TestSiteCap(t *testing.T) {
	cfg := defaultCfg()
	cfg.MaxInstances = 2
	s := newSite(t, cfg)
	if _, err := s.Launch(0); err != nil {
		t.Fatal(err)
	}
	b, err := s.Launch(0)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.Launch(0); !errors.Is(err, ErrSiteFull) {
		t.Fatalf("expected ErrSiteFull, got %v", err)
	}
	// Terminating frees capacity.
	if err := s.Terminate(b, 0); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Launch(1); err != nil {
		t.Fatalf("launch after release failed: %v", err)
	}
}

func TestChargingFromActivation(t *testing.T) {
	cfg := defaultCfg()
	cfg.ChargingUnit = 60
	s := newSite(t, cfg)
	in, _ := s.Launch(0) // active at 180, billing starts at 180
	if err := s.Activate(in, 180); err != nil {
		t.Fatal(err)
	}
	if got := in.UnitsChargedAt(180); got != 0 {
		t.Fatalf("units at activation = %d, want 0", got)
	}
	if got := in.UnitsChargedAt(181); got != 1 {
		t.Fatalf("units one second in = %d, want 1", got)
	}
	if got := in.UnitsChargedAt(240); got != 1 {
		t.Fatalf("units at first boundary = %d, want 1", got)
	}
	if got := in.UnitsChargedAt(241); got != 2 {
		t.Fatalf("units past boundary = %d, want 2", got)
	}
	if err := s.Terminate(in, 300); err != nil {
		t.Fatal(err)
	}
	// 120 s of life at u=60 -> 2 units, regardless of later query times.
	if got := in.UnitsChargedAt(1e9); got != 2 {
		t.Fatalf("final units = %d, want 2", got)
	}
}

func TestChargeFromRequest(t *testing.T) {
	cfg := defaultCfg()
	cfg.ChargingUnit = 60
	cfg.ChargeFromRequest = true
	s := newSite(t, cfg)
	in, _ := s.Launch(0)
	if in.ChargeOrigin() != 0 {
		t.Fatalf("charge origin = %v, want 0", in.ChargeOrigin())
	}
	if got := in.UnitsChargedAt(180); got != 3 {
		t.Fatalf("units during lag = %d, want 3", got)
	}
}

func TestCancelPendingIsFree(t *testing.T) {
	s := newSite(t, defaultCfg())
	in, _ := s.Launch(0)
	if err := s.Terminate(in, 50); err != nil {
		t.Fatal(err)
	}
	if got := in.UnitsChargedAt(1e9); got != 0 {
		t.Fatalf("canceled pending instance charged %d units", got)
	}
	if err := s.Terminate(in, 60); err == nil {
		t.Fatal("double terminate must fail")
	}
}

func TestTimeToNextCharge(t *testing.T) {
	cfg := defaultCfg()
	cfg.ChargingUnit = 600
	cfg.LagTime = 0
	s := newSite(t, cfg)
	in, _ := s.Launch(100) // billing origin 100
	if err := s.Activate(in, 100); err != nil {
		t.Fatal(err)
	}
	if got := in.TimeToNextCharge(100); got != 600 {
		t.Fatalf("r at origin = %v, want 600", got)
	}
	if got := in.TimeToNextCharge(650); got != 50 {
		t.Fatalf("r mid-unit = %v, want 50", got)
	}
	if got := in.TimeToNextCharge(700); got != 600 {
		t.Fatalf("r at boundary = %v, want 600 (next unit)", got)
	}
}

func TestPoolQueries(t *testing.T) {
	s := newSite(t, defaultCfg())
	a, _ := s.Launch(0)
	b, _ := s.Launch(0)
	if a.State != Pending || b.State != Pending {
		t.Fatalf("states after launch = %v, %v, want pending", a.State, b.State)
	}
	if err := s.Activate(a, 180); err != nil {
		t.Fatal(err)
	}
	if a.State != Active || !a.UsableAt(180) {
		t.Fatalf("activated instance: state %v, usable at 180 = %v", a.State, a.UsableAt(180))
	}
	if b.State != Pending {
		t.Fatalf("other instance after activation = %v, want pending", b.State)
	}
	if err := s.Activate(b, 180); err != nil {
		t.Fatal(err)
	}
	if s.Held() != 2 {
		t.Fatalf("Held = %d", s.Held())
	}
	if got := len(s.Instances()); got != 2 {
		t.Fatalf("Instances = %d", got)
	}
}

func TestTotalsAndUtilization(t *testing.T) {
	cfg := defaultCfg()
	cfg.ChargingUnit = 100
	cfg.LagTime = 0
	cfg.SlotsPerInstance = 2
	s := newSite(t, cfg)
	a, _ := s.Launch(0)
	if err := s.Activate(a, 0); err != nil {
		t.Fatal(err)
	}
	a.BusySlotSeconds = 120
	if err := s.Terminate(a, 100); err != nil { // exactly 1 unit
		t.Fatal(err)
	}
	if got := s.TotalUnitsCharged(500); got != 1 {
		t.Fatalf("total units = %d, want 1", got)
	}
	if got := s.TotalChargedSeconds(500); got != 100 {
		t.Fatalf("charged seconds = %v", got)
	}
	// paid slot-seconds = 100*2 = 200; busy = 120 -> utilization 0.6
	if got := s.Utilization(500); got != 0.6 {
		t.Fatalf("utilization = %v, want 0.6", got)
	}
}

func TestUtilizationZeroWhenUnused(t *testing.T) {
	s := newSite(t, defaultCfg())
	if s.Utilization(100) != 0 {
		t.Fatal("empty site should have zero utilization")
	}
}

// Property: total charged units never decreases as the query time grows.
func TestChargeMonotoneProperty(t *testing.T) {
	f := func(lifeRaw uint16, unitRaw uint8) bool {
		cfg := defaultCfg()
		cfg.ChargingUnit = float64(unitRaw%100) + 1
		cfg.LagTime = 0
		s, err := NewSite(cfg)
		if err != nil {
			return false
		}
		in, err := s.Launch(0)
		if err != nil {
			return false
		}
		if err := s.Activate(in, 0); err != nil {
			return false
		}
		life := float64(lifeRaw % 10000)
		prev := -1
		for _, f := range []float64{0.1, 0.5, 1.0} {
			got := in.UnitsChargedAt(life * f)
			if got < prev {
				return false
			}
			prev = got
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestStateString(t *testing.T) {
	if Pending.String() != "pending" || Active.String() != "active" || Terminated.String() != "terminated" {
		t.Fatal("state strings wrong")
	}
	if State(9).String() == "" {
		t.Fatal("unknown state should still render")
	}
}
