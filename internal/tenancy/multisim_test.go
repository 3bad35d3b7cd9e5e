package tenancy

import (
	"reflect"
	"runtime"
	"strings"
	"testing"
	"time"

	"repro/internal/cloud"
)

// acceptanceCloud is the pinned acceptance site: the paper's 900 s charging
// unit and 180 s lag, 2 slots per instance, shared cap of 6.
func acceptanceCloud() cloud.Config {
	return cloud.Config{SlotsPerInstance: 2, LagTime: 180, ChargingUnit: 900, MaxInstances: 6}
}

func acceptanceStream(t *testing.T) *Stream {
	t.Helper()
	s, err := Generate(testStreamConfig(Poisson, 24))
	if err != nil {
		t.Fatal(err)
	}
	return s
}

func runAcceptance(t *testing.T, s *Stream, policy string, budget int) *MultiResult {
	t.Helper()
	res, err := RunStream(s, MultiConfig{
		Cloud:   acceptanceCloud(),
		Arbiter: ArbiterConfig{Policy: policy, Cap: 6, BudgetUnits: budget},
		SimSeed: 42,
	})
	if err != nil {
		t.Fatal(err)
	}
	return res
}

// The headline acceptance property: a seeded Poisson stream of 51
// heterogeneous workflows through the shared site-capped pool, where the
// budget-feedback urgency arbiter keeps aggregate spend within the configured
// budget — which the no-arbiter baseline exceeds — while strictly improving
// the deadline-miss rate.
func TestBudgetFeedbackAcceptance(t *testing.T) {
	const budget = 70
	s := acceptanceStream(t)
	if len(s.Arrivals) < 50 {
		t.Fatalf("stream has %d arrivals, want >= 50", len(s.Arrivals))
	}

	baseline := runAcceptance(t, s, FCFS, 0)
	arbited := runAcceptance(t, s, Urgency, budget)

	if arbited.TotalUnits > budget {
		t.Errorf("budget-feedback spend %d units exceeds budget %d", arbited.TotalUnits, budget)
	}
	if baseline.TotalUnits <= budget {
		t.Errorf("baseline spend %d units within budget %d; the budget is not binding", baseline.TotalUnits, budget)
	}
	if arbited.Misses >= baseline.Misses {
		t.Errorf("budget-feedback misses %d, baseline %d; want a strict improvement",
			arbited.Misses, baseline.Misses)
	}
	for _, res := range []*MultiResult{baseline, arbited} {
		if res.PeakHeld > 6 {
			t.Errorf("%s: peak held %d exceeds the shared cap 6", res.Policy, res.PeakHeld)
		}
		if len(res.Outcomes) != len(s.Arrivals) {
			t.Errorf("%s: %d outcomes for %d arrivals (dropped submissions)", res.Policy, len(res.Outcomes), len(s.Arrivals))
		}
		for _, o := range res.Outcomes {
			if o.QueueDelayS < 0 {
				t.Errorf("%s: run %d admitted before it arrived", res.Policy, o.Arrival.Index)
			}
			if o.Units != o.Result.UnitsCharged {
				t.Errorf("%s: run %d ledger drift: %d vs %d", res.Policy, o.Arrival.Index, o.Units, o.Result.UnitsCharged)
			}
		}
	}
	t.Logf("baseline: %d misses, %d units; budget-feedback urgency: %d misses, %d units (budget %d)",
		baseline.Misses, baseline.TotalUnits, arbited.Misses, arbited.TotalUnits, budget)
}

// normalized strips the one intentionally nondeterministic diagnostic —
// ControllerWall is real CPU time — so the rest can be compared exactly.
func normalized(res *MultiResult) *MultiResult {
	out := *res
	out.Outcomes = append([]Outcome(nil), res.Outcomes...)
	for i, o := range out.Outcomes {
		if o.Result != nil {
			r := *o.Result
			r.ControllerWall = 0
			out.Outcomes[i].Result = &r
		}
	}
	return &out
}

// Every policy must be exactly reproducible from the seed: two runs of the
// same stream and config yield identical outcome tables.
func TestRunStreamDeterministic(t *testing.T) {
	s := acceptanceStream(t)
	for _, policy := range Policies() {
		a := runAcceptance(t, s, policy, 70)
		b := runAcceptance(t, s, policy, 70)
		if !reflect.DeepEqual(normalized(a), normalized(b)) {
			t.Errorf("%s: two runs of the same stream differ", policy)
		}
	}
}

// A tightening budget must visibly engage the feedback loop: fewer units
// spent, more throttled admissions, and a longer queue — never a violated
// budget while the baseline stays under it.
func TestBudgetFeedbackEngages(t *testing.T) {
	s := acceptanceStream(t)
	loose := runAcceptance(t, s, Urgency, 1000)
	tight := runAcceptance(t, s, Urgency, 70)
	if tight.TotalUnits > loose.TotalUnits {
		t.Errorf("tight budget spent %d units, loose spent %d", tight.TotalUnits, loose.TotalUnits)
	}
	if tight.TotalUnits > 70 {
		t.Errorf("tight budget violated: %d units > 70", tight.TotalUnits)
	}
}

// Runs admitted with the deadline already hopeless still finish (austerity
// floor), and completions settle on the global clock.
func TestRunStreamCompletesOverloaded(t *testing.T) {
	// 12 arrivals at a brutal rate on a tiny site: heavy deferral.
	cfg := testStreamConfig(Poisson, 120)
	cfg.N = 12
	s, err := Generate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	cl := acceptanceCloud()
	cl.MaxInstances = 2
	res, err := RunStream(s, MultiConfig{
		Cloud:   cl,
		Arbiter: ArbiterConfig{Policy: Urgency, Cap: 2, BudgetUnits: 10},
		SimSeed: 1,
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Outcomes) != 12 {
		t.Fatalf("%d outcomes, want 12", len(res.Outcomes))
	}
	if res.PeakHeld > 2 {
		t.Errorf("peak held %d exceeds cap 2", res.PeakHeld)
	}
	for _, o := range res.Outcomes {
		if o.CompletedAt <= o.AdmittedAt {
			t.Errorf("run %d completed at %v, admitted at %v", o.Arrival.Index, o.CompletedAt, o.AdmittedAt)
		}
	}
	if res.ThrottledAdmissions == 0 {
		t.Error("no throttled admissions under a brutal overload; admission gate inert")
	}
}

// An arrival naming no catalogued workflow fails the whole stream before any
// run starts. Checked only at admission, it once returned the error while the
// runs admitted before it stayed parked on their grant channels for good.
func TestRunStreamRejectsUnknownKeyBeforeAnyRun(t *testing.T) {
	s := &Stream{Arrivals: []Arrival{
		{Index: 0, Tenant: "t0", Time: 0, WorkflowKey: "genome-s", WorkflowSeed: 1, DeadlineS: 3600, BudgetUnits: 4},
		{Index: 1, Tenant: "t0", Time: 60, WorkflowKey: "bogus", WorkflowSeed: 2, DeadlineS: 3600, BudgetUnits: 4},
	}}
	before := runtime.NumGoroutine()
	_, err := RunStream(s, MultiConfig{
		Cloud:   acceptanceCloud(),
		Arbiter: ArbiterConfig{Policy: FCFS, Cap: 6},
		SimSeed: 1,
	})
	if err == nil || !strings.Contains(err.Error(), `unknown workload "bogus"`) {
		t.Fatalf("got %v, want the unknown-workload error", err)
	}
	for deadline := time.Now().Add(time.Second); runtime.NumGoroutine() > before; time.Sleep(10 * time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatalf("%d goroutines before RunStream, %d after it returned", before, runtime.NumGoroutine())
		}
	}
}
