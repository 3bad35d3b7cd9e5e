package event

import (
	"math/rand"
	"sort"
	"testing"
	"testing/quick"

	"repro/internal/simtime"
)

// priDefault is a priority below every standard one.
const priDefault Priority = 4

func TestOrderByTime(t *testing.T) {
	e := New()
	var got []int
	e.At(3, priDefault, "c", func(*Engine, simtime.Time) { got = append(got, 3) })
	e.At(1, priDefault, "a", func(*Engine, simtime.Time) { got = append(got, 1) })
	e.At(2, priDefault, "b", func(*Engine, simtime.Time) { got = append(got, 2) })
	if err := e.RunUntil(-1); err != nil {
		t.Fatal(err)
	}
	want := []int{1, 2, 3}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("order = %v, want %v", got, want)
		}
	}
	if e.now != 3 {
		t.Fatalf("Now = %v, want 3", e.now)
	}
}

func TestTieBreakByPriorityThenSeq(t *testing.T) {
	e := New()
	var got []string
	e.At(5, PriControl, "control", func(*Engine, simtime.Time) { got = append(got, "control") })
	e.At(5, PriTask, "task2", func(*Engine, simtime.Time) { got = append(got, "task2") })
	e.At(5, PriInstance, "inst", func(*Engine, simtime.Time) { got = append(got, "inst") })
	e.At(5, PriTask, "task3", func(*Engine, simtime.Time) { got = append(got, "task3") })
	if err := e.RunUntil(-1); err != nil {
		t.Fatal(err)
	}
	want := []string{"inst", "task2", "task3", "control"}
	if len(got) != len(want) {
		t.Fatalf("got %v", got)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("order = %v, want %v", got, want)
		}
	}
}

func TestHandlersScheduleMore(t *testing.T) {
	e := New()
	count := 0
	var tick func(*Engine, simtime.Time)
	tick = func(en *Engine, now simtime.Time) {
		count++
		if count < 10 {
			en.At(now+1, priDefault, "tick", tick)
		}
	}
	e.At(0, priDefault, "tick", tick)
	if err := e.RunUntil(-1); err != nil {
		t.Fatal(err)
	}
	if count != 10 {
		t.Fatalf("count = %d, want 10", count)
	}
	if e.now != 9 {
		t.Fatalf("Now = %v, want 9", e.now)
	}
}

func TestCancel(t *testing.T) {
	e := New()
	fired := false
	ev := e.At(1, priDefault, "x", func(*Engine, simtime.Time) { fired = true })
	e.Cancel(ev)
	e.Cancel(ev) // double cancel is a no-op
	e.Cancel(nil)
	if err := e.RunUntil(-1); err != nil {
		t.Fatal(err)
	}
	if fired {
		t.Fatal("canceled event fired")
	}
	if !ev.canceled {
		t.Fatal("event not marked canceled")
	}
}

func TestCancelFromHandler(t *testing.T) {
	e := New()
	fired := false
	victim := e.At(2, priDefault, "victim", func(*Engine, simtime.Time) { fired = true })
	e.At(1, priDefault, "killer", func(en *Engine, now simtime.Time) { en.Cancel(victim) })
	if err := e.RunUntil(-1); err != nil {
		t.Fatal(err)
	}
	if fired {
		t.Fatal("victim fired despite cancel")
	}
}

func TestSchedulePastPanics(t *testing.T) {
	e := New()
	e.At(5, priDefault, "x", func(*Engine, simtime.Time) {})
	if !e.Step() {
		t.Fatal("no event")
	}
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic scheduling in the past")
		}
	}()
	e.At(1, priDefault, "past", func(*Engine, simtime.Time) {})
}

func TestRunUntilHorizon(t *testing.T) {
	e := New()
	var got []simtime.Time
	for _, tm := range []simtime.Time{1, 2, 3, 4, 5} {
		tm := tm
		e.At(tm, priDefault, "x", func(*Engine, simtime.Time) { got = append(got, tm) })
	}
	if err := e.RunUntil(3); err != nil {
		t.Fatal(err)
	}
	if len(got) != 3 {
		t.Fatalf("fired %v, want first 3", got)
	}
	if len(e.queue) == 0 || e.queue[0].time != 4 {
		t.Fatalf("next pending event after the horizon is not at 4")
	}
	if err := e.RunUntil(-1); err != nil {
		t.Fatal(err)
	}
	if len(got) != 5 {
		t.Fatalf("fired %v, want all 5", got)
	}
}

func TestMaxEventsGuard(t *testing.T) {
	e := New()
	e.MaxEvents = 100
	var tick func(*Engine, simtime.Time)
	tick = func(en *Engine, now simtime.Time) { en.At(now+1, priDefault, "tick", tick) }
	e.At(0, priDefault, "tick", tick)
	if err := e.RunUntil(-1); err == nil {
		t.Fatal("expected MaxEvents error")
	}
}

func TestLenAndFired(t *testing.T) {
	e := New()
	a := e.At(1, priDefault, "a", func(*Engine, simtime.Time) {})
	e.At(2, priDefault, "b", func(*Engine, simtime.Time) {})
	if len(e.queue) != 2 {
		t.Fatalf("Len = %d, want 2", len(e.queue))
	}
	e.Cancel(a)
	if len(e.queue) != 1 {
		t.Fatalf("Len after cancel = %d, want 1", len(e.queue))
	}
	if err := e.RunUntil(-1); err != nil {
		t.Fatal(err)
	}
	if e.fired != 1 {
		t.Fatalf("Fired = %d, want 1", e.fired)
	}
}

// Property: events always fire in non-decreasing time order regardless of
// insertion order.
func TestFiringOrderProperty(t *testing.T) {
	f := func(seed int64, nRaw uint8) bool {
		n := int(nRaw%50) + 1
		rng := rand.New(rand.NewSource(seed))
		e := New()
		var fired []simtime.Time
		times := make([]simtime.Time, n)
		for i := 0; i < n; i++ {
			times[i] = float64(rng.Intn(100))
			tm := times[i]
			e.At(tm, priDefault, "x", func(*Engine, simtime.Time) { fired = append(fired, tm) })
		}
		if err := e.RunUntil(-1); err != nil {
			return false
		}
		if !sort.Float64sAreSorted(fired) {
			return false
		}
		return len(fired) == n
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// TestCancelMidHeapMatchesReferenceOrder cancels events wherever they sit in
// the heap — before the run and from inside handlers — and checks the fired
// sequence against a reference: every event sorted by (time, priority,
// insertion), walked in order, skipping the canceled ones.
func TestCancelMidHeapMatchesReferenceOrder(t *testing.T) {
	type spec struct {
		time     simtime.Time
		pri      Priority
		cancelBy int // index of the event whose handler cancels this one, or -1
		canceled bool
	}
	for seed := int64(0); seed < 200; seed++ {
		rng := rand.New(rand.NewSource(seed))
		n := rng.Intn(60) + 1
		specs := make([]spec, n)
		for i := range specs {
			specs[i] = spec{time: simtime.Time(rng.Intn(10)), pri: Priority(rng.Intn(3)), cancelBy: -1}
		}
		for i := range specs {
			switch rng.Intn(4) {
			case 0:
				specs[i].canceled = true
			case 1:
				specs[i].cancelBy = rng.Intn(n)
			}
		}

		e := New()
		evs := make([]*Event, n)
		var fired []int
		for i := range specs {
			i := i
			evs[i] = e.At(specs[i].time, specs[i].pri, "x", func(*Engine, simtime.Time) {
				fired = append(fired, i)
				for j := range specs {
					if specs[j].cancelBy == i {
						e.Cancel(evs[j])
					}
				}
			})
		}
		pending := n
		for i := range specs {
			if specs[i].canceled {
				e.Cancel(evs[i])
				pending--
			}
		}
		if len(e.queue) != pending {
			t.Fatalf("seed %d: Len = %d after cancels, want %d", seed, len(e.queue), pending)
		}
		if err := e.RunUntil(-1); err != nil {
			t.Fatal(err)
		}

		order := make([]int, n)
		for i := range order {
			order[i] = i
		}
		sort.SliceStable(order, func(a, b int) bool {
			x, y := specs[order[a]], specs[order[b]]
			if x.time != y.time {
				return x.time < y.time
			}
			return x.pri < y.pri
		})
		dead := make([]bool, n)
		for i := range specs {
			dead[i] = specs[i].canceled
		}
		var want []int
		for _, i := range order {
			if dead[i] {
				continue
			}
			want = append(want, i)
			for j := range specs {
				if specs[j].cancelBy == i {
					dead[j] = true
				}
			}
		}
		if len(fired) != len(want) {
			t.Fatalf("seed %d: fired %v, want %v", seed, fired, want)
		}
		for k := range want {
			if fired[k] != want[k] {
				t.Fatalf("seed %d: fired %v, want %v", seed, fired, want)
			}
		}
	}
}
