package chaos

import (
	"io"
	"net/http"
	"net/http/httptest"
	"reflect"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/sim"
)

func testPlan() Plan {
	return Plan{
		Seed:              42,
		DropRequest:       0.1,
		Err5xx:            0.1,
		DropResponse:      0.1,
		DelayProb:         0.2,
		MaxDelay:          time.Millisecond,
		LostOrder:         0.1,
		DuplicateOrder:    0.1,
		DeadOnArrival:     0.1,
		StragglerProb:     0.2,
		MaxStragglerDelay: 60,
	}
}

// netSchedule returns the first n entries of stream's network fault schedule:
// exactly what a Transport for the same (plan, stream) will inject.
func netSchedule(p Plan, stream int64, n int) []NetFault {
	d := &netDecider{plan: p, rng: p.rng(streamNetwork, uint64(stream))}
	out := make([]NetFault, n)
	for i := range out {
		out[i] = d.next()
	}
	return out
}

// cloudSchedule returns the first n launch-order fates of stream's cloud
// schedule: exactly what a CloudFaults for the same (plan, stream) returns
// from its first n LaunchFate calls.
func cloudSchedule(p Plan, stream int64, n int) []sim.LaunchFate {
	d := newCloudDecider(p, stream)
	out := make([]sim.LaunchFate, n)
	for i := range out {
		out[i] = d.fate()
	}
	return out
}

// TestScheduleRepeatRunEquality is the determinism acceptance test: the same
// chaos seed and fault plan must reproduce the same fault schedule, run
// after run, for both the network and the cloud schedules.
func TestScheduleRepeatRunEquality(t *testing.T) {
	p := testPlan()
	for stream := int64(0); stream < 5; stream++ {
		a, b := netSchedule(p, stream, 500), netSchedule(p, stream, 500)
		if !reflect.DeepEqual(a, b) {
			t.Fatalf("network schedule of stream %d differs between runs", stream)
		}
		ca, cb := cloudSchedule(p, stream, 500), cloudSchedule(p, stream, 500)
		if !reflect.DeepEqual(ca, cb) {
			t.Fatalf("cloud schedule of stream %d differs between runs", stream)
		}
	}

	// Distinct streams and distinct seeds get distinct schedules.
	if reflect.DeepEqual(netSchedule(p, 0, 500), netSchedule(p, 1, 500)) {
		t.Error("streams 0 and 1 share a network schedule")
	}
	p2 := p
	p2.Seed = 43
	if reflect.DeepEqual(netSchedule(p, 0, 500), netSchedule(p2, 0, 500)) {
		t.Error("seeds 42 and 43 share a network schedule")
	}
}

// TestTransportFollowsSchedule drives a real Transport through a live
// httptest server and checks every attempt meets exactly the fate the
// published schedule predicts.
func TestTransportFollowsSchedule(t *testing.T) {
	var served atomic.Int64
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		served.Add(1)
		w.WriteHeader(http.StatusOK)
	}))
	defer ts.Close()

	p := testPlan()
	p.DelayProb, p.MaxDelay = 0, 0 // keep the test fast
	const n = 200
	sched := netSchedule(p, 7, n)
	tr := p.Transport(7, http.DefaultTransport)
	hc := &http.Client{Transport: tr}

	wantServed := int64(0)
	for i := 0; i < n; i++ {
		resp, err := hc.Get(ts.URL)
		switch sched[i].Kind {
		case FaultDropRequest, FaultDropResponse:
			if err == nil {
				resp.Body.Close()
				t.Fatalf("attempt %d: want injected error (%v), got success", i, sched[i].Kind)
			}
			if sched[i].Kind == FaultDropResponse {
				wantServed++ // the server processed it before the reset
			}
		case FaultErr5xx:
			if err != nil {
				t.Fatalf("attempt %d: want synthesized 503, got error %v", i, err)
			}
			if resp.StatusCode != http.StatusServiceUnavailable {
				t.Fatalf("attempt %d: status %d, want 503", i, resp.StatusCode)
			}
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
		default:
			if err != nil {
				t.Fatalf("attempt %d: want success, got %v", i, err)
			}
			if resp.StatusCode != http.StatusOK {
				t.Fatalf("attempt %d: status %d, want 200", i, resp.StatusCode)
			}
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			wantServed++
		}
	}

	if got := served.Load(); got != wantServed {
		t.Errorf("server saw %d requests, schedule predicts %d", got, wantServed)
	}
	c := tr.Counts()
	if c.Attempts != n {
		t.Errorf("counted %d attempts, want %d", c.Attempts, n)
	}
	if c.DroppedRequests+c.Injected5xx+c.DroppedResponses == 0 {
		t.Error("no faults injected at 30% fault probability over 200 attempts")
	}
}

// TestCloudFaultsFollowSchedule checks the live injector replays the
// published fate schedule and counts what it injects.
func TestCloudFaultsFollowSchedule(t *testing.T) {
	p := testPlan()
	const n = 300
	sched := cloudSchedule(p, 3, n)
	cf := p.CloudFaults(3)
	var want CloudCounts
	for i := 0; i < n; i++ {
		got := cf.LaunchFate()
		if got != sched[i] {
			t.Fatalf("order %d: fate %v, schedule says %v", i, got, sched[i])
		}
		want.Orders++
		switch got {
		case sim.LaunchLost:
			want.Lost++
		case sim.LaunchDuplicated:
			want.Duplicated++
		case sim.LaunchDOA:
			want.DOA++
		}
	}
	c := cf.Counts()
	c.Stragglers = 0 // not exercised here
	if c != want {
		t.Errorf("counts %+v, want %+v", c, want)
	}
	if want.Lost == 0 || want.Duplicated == 0 || want.DOA == 0 {
		t.Errorf("some fault class never fired over %d orders: %+v", n, want)
	}

	// Straggler draws: deterministic and bounded.
	cf2, cf3 := p.CloudFaults(9), p.CloudFaults(9)
	sawDelay := false
	for i := 0; i < 200; i++ {
		d2, d3 := cf2.ActivationDelay(), cf3.ActivationDelay()
		if d2 != d3 {
			t.Fatalf("straggler draw %d differs between identical streams: %v vs %v", i, d2, d3)
		}
		if d2 < 0 || d2 > p.MaxStragglerDelay {
			t.Fatalf("straggler delay %v outside (0, %v]", d2, p.MaxStragglerDelay)
		}
		if d2 > 0 {
			sawDelay = true
		}
	}
	if !sawDelay {
		t.Error("no straggler delay fired at 20% probability over 200 draws")
	}
}

// TestPlanValidate pins the configuration errors.
func TestPlanValidate(t *testing.T) {
	if err := (Plan{}).Validate(); err != nil {
		t.Errorf("zero plan should validate: %v", err)
	}
	if err := testPlan().Validate(); err != nil {
		t.Errorf("test plan should validate: %v", err)
	}
	bad := []Plan{
		{DropRequest: -0.1},
		{Err5xx: 1.5},
		{DropRequest: 0.5, Err5xx: 0.4, DropResponse: 0.2},
		{LostOrder: 0.5, DuplicateOrder: 0.4, DeadOnArrival: 0.2},
		{DelayProb: 0.1},
		{StragglerProb: 0.1},
	}
	for i, p := range bad {
		if err := p.Validate(); err == nil {
			t.Errorf("bad plan %d validated: %+v", i, p)
		}
	}
	if (Plan{}).Active() {
		t.Error("zero plan reports active")
	}
	if !testPlan().Active() {
		t.Error("test plan reports inactive")
	}
}

// TestChurnScheduleDeterministic pins the topology-churn schedule: the same
// seed reproduces the same event sequence, a different seed reshuffles it,
// gaps stay within the configured bounds, and the guard rails on degenerate
// arguments hold.
func TestChurnScheduleDeterministic(t *testing.T) {
	p := Plan{Seed: 42}
	const minGap, maxGap = 50 * time.Millisecond, 400 * time.Millisecond
	a := p.ChurnSchedule(3, 12, minGap, maxGap)
	b := p.ChurnSchedule(3, 12, minGap, maxGap)
	if !reflect.DeepEqual(a, b) {
		t.Fatal("churn schedule differs between runs of the same seed")
	}
	if len(a) != 12 {
		t.Fatalf("schedule has %d events, want 12", len(a))
	}
	prev := time.Duration(0)
	actions := map[ChurnAction]int{}
	for i, ev := range a {
		gap := ev.At - prev
		if gap < minGap || gap > maxGap {
			t.Errorf("event %d: gap %v outside [%v, %v]", i, gap, minGap, maxGap)
		}
		prev = ev.At
		if ev.Shard < 0 || ev.Shard >= 3 {
			t.Errorf("event %d targets shard %d of a 3-shard fleet", i, ev.Shard)
		}
		actions[ev.Action]++
	}
	for _, act := range []ChurnAction{ChurnKill, ChurnDrain, ChurnJoin} {
		if act.String() == "" {
			t.Errorf("action %d has no name", act)
		}
	}
	if len(actions) < 2 {
		t.Errorf("12 events drew only %d distinct actions: %v", len(actions), actions)
	}

	q := Plan{Seed: 43}
	if reflect.DeepEqual(a, q.ChurnSchedule(3, 12, minGap, maxGap)) {
		t.Error("seeds 42 and 43 share a churn schedule")
	}

	// Guard rails: degenerate arguments yield an empty schedule or clamp.
	if p.ChurnSchedule(0, 5, minGap, maxGap) != nil {
		t.Error("zero shards produced a schedule")
	}
	if p.ChurnSchedule(3, 0, minGap, maxGap) != nil {
		t.Error("zero events produced a schedule")
	}
	fixed := p.ChurnSchedule(3, 4, minGap, minGap) // maxGap == minGap: fixed cadence
	for i, ev := range fixed {
		if want := minGap * time.Duration(i+1); ev.At != want {
			t.Errorf("fixed-gap event %d at %v, want %v", i, ev.At, want)
		}
	}
}
