package exec

import (
	"context"
	"runtime/debug"
	"testing"
	"time"

	"repro/internal/cloud"
)

// benchDispatcher builds a started run over a flat workflow of n tasks with
// one wide agent bound, ready to grant leases. The run is aborted when tb
// finishes.
func benchDispatcher(tb testing.TB, n int) (*Dispatcher, string) {
	tb.Helper()
	d, err := NewDispatcher(Config{
		Workflow:   flatWorkflow(n, 1),
		Controller: holdController{},
		Cloud: cloud.Config{
			SlotsPerInstance: 64,
			LagTime:          1,
			ChargingUnit:     3600,
			MaxInstances:     1,
		},
		Interval:  1 << 20, // no control tick during the benchmark
		Timescale: 1000,
	})
	if err != nil {
		tb.Fatal(err)
	}
	tb.Cleanup(func() { d.Abort("bench over") })
	reg, err := d.Register("bench", 64)
	if err != nil {
		tb.Fatal(err)
	}
	if err := d.Start(); err != nil {
		tb.Fatal(err)
	}
	// Wait out the scaled instantiation lag (1 ms of wall clock) so the
	// instance is active before timing starts.
	deadline := time.Now().Add(5 * time.Second)
	for {
		resp, err := d.Poll(context.Background(), reg.AgentID, 10*time.Millisecond)
		if err != nil {
			tb.Fatal(err)
		}
		if resp.Status == "active" || len(resp.Leases) > 0 {
			// Return the undelivered leases to the measured loop by
			// completing none here; the first measured Poll re-delivers
			// nothing, so complete these now, outside the timer.
			for _, l := range resp.Leases {
				if _, err := d.Complete(reg.AgentID, l.ID, CompleteReport{ExecS: 1}); err != nil {
					tb.Fatal(err)
				}
			}
			break
		}
		if time.Now().After(deadline) {
			tb.Fatal("instance never activated")
		}
	}
	return d, reg.AgentID
}

// leaseProtocol returns the dispatcher's lease hot path for n leases: each
// call completes one lease, polling for the next grants once the last poll's
// are used up, through the same code the HTTP handlers call (minus JSON
// transport). A poll's cost is shared by the leases it grants.
func leaseProtocol(tb testing.TB, n int) func() {
	d, agent := benchDispatcher(tb, n+64)
	ctx := context.Background()
	var granted []Lease
	return func() {
		for len(granted) == 0 {
			resp, err := d.Poll(ctx, agent, 10*time.Millisecond)
			if err != nil {
				tb.Fatal(err)
			}
			granted = resp.Leases
		}
		l := granted[0]
		granted = granted[1:]
		if _, err := d.Complete(agent, l.ID, CompleteReport{ExecS: 1, TransferS: 0, InputMB: 1}); err != nil {
			tb.Fatal(err)
		}
	}
}

// runStatus returns status assembly over a 1024-task run with live leases —
// the document agents and dashboards poll. Calls do not use up the run, so
// n is ignored.
func runStatus(tb testing.TB, _ int) func() {
	d, agent := benchDispatcher(tb, 1024)
	if _, err := d.Poll(context.Background(), agent, 10*time.Millisecond); err != nil {
		tb.Fatal(err)
	}
	return func() {
		if st := d.Status(); st.State != Running {
			tb.Fatalf("state %v", st.State)
		}
	}
}

func BenchmarkLeaseProtocol(b *testing.B) { benchLoop(b, leaseProtocol) }

func BenchmarkRunStatus(b *testing.B) { benchLoop(b, runStatus) }

func benchLoop(b *testing.B, setup func(testing.TB, int) func()) {
	op := setup(b, b.N)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		op()
	}
}

// TestHotPathAllocs holds the benchmarked paths to a heap-allocation bound per
// operation. Unlike their timings, allocation counts do not depend on the
// machine. Each bound is ⌊1.15 × the count measured when it was set⌋: 6 per
// lease (poll share, grant and complete) and 3 per status document.
func TestHotPathAllocs(t *testing.T) {
	if raceEnabled() {
		t.Skip("the race detector changes allocation counts")
	}
	// Per-lease counts include the poll's share and amortised table growth;
	// they settle near the benchmark's figure only over thousands of leases.
	const runs = 10000
	for _, c := range []struct {
		name  string
		setup func(testing.TB, int) func()
		max   float64
	}{
		{"LeaseProtocol", leaseProtocol, 6},
		{"RunStatus", runStatus, 3},
	} {
		t.Run(c.name, func(t *testing.T) {
			// AllocsPerRun calls op once more to warm up.
			op := c.setup(t, runs+1)
			if got := testing.AllocsPerRun(runs, op); got > c.max {
				t.Errorf("%s: %v allocs per op, bound %v", c.name, got, c.max)
			}
		})
	}
}

// raceEnabled reports whether the test binary was built with -race.
func raceEnabled() bool {
	bi, ok := debug.ReadBuildInfo()
	if !ok {
		return false
	}
	for _, s := range bi.Settings {
		if s.Key == "-race" {
			return s.Value == "true"
		}
	}
	return false
}
