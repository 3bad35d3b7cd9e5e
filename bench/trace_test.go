package main

import (
	"math"
	"testing"
	"time"
)

func TestSelfTimeSubtractsUnionOfChildren(t *testing.T) {
	spans := []span{
		{Name: "parent", ID: 1, Start: 0, End: 100},
		// Two overlapping children cover [10,50) once, not 30+30.
		{Name: "child", ID: 2, Parent: 1, Start: 10, End: 40},
		{Name: "child", ID: 3, Parent: 1, Start: 20, End: 50},
		// A child sticking out of its parent counts only inside it.
		{Name: "child", ID: 4, Parent: 1, Start: 90, End: 130},
		// A grandchild shortens its own parent, not the grandparent.
		{Name: "grandchild", ID: 5, Parent: 2, Start: 15, End: 25},
		// Unrelated request.
		{Name: "parent", ID: 6, Start: 200, End: 230},
	}
	self := selfTimes(spans)
	if got, want := self["parent"], []float64{100 - 40 - 10, 30}; got[0] != want[0] || got[1] != want[1] {
		t.Errorf("parent self times = %v, want %v", got, want)
	}
	if got := self["child"]; got[0] != 30-10 || got[1] != 30 || got[2] != 40 {
		t.Errorf("child self times = %v, want [20 30 40]", got)
	}
	if got := durations(spans)["child"]; got[2] != 40 {
		t.Errorf("child durations = %v: a duration is not clipped", got)
	}
}

func TestSpanHeaderRoundTrip(t *testing.T) {
	ref := spanRef{req: 7, id: 42}
	if got := parseSpanHeader(formatSpanHeader(ref)); got != ref {
		t.Errorf("round trip = %+v, want %+v", got, ref)
	}
	for _, bad := range []string{"", "7", "7-x", "-"} {
		if got := parseSpanHeader(bad); got != (spanRef{}) {
			t.Errorf("parseSpanHeader(%q) = %+v, want zero", bad, got)
		}
	}
}

func TestTailPercentileKeepsTenSamplesBeyond(t *testing.T) {
	for _, c := range []struct {
		n    int
		want float64
	}{
		{5000, 99}, {1000, 99}, {999, 95}, {200, 95}, {199, 90}, {100, 90}, {99, 75}, {40, 75}, {39, 50}, {3, 50},
	} {
		if got := tailPercentile(c.n); got != c.want {
			t.Errorf("tailPercentile(%d) = %g, want %g", c.n, got, c.want)
		}
	}
	// 1000 samples 1..1000: p99 interpolates between the 990th and 991st.
	xs := make([]float64, 1000)
	for i := range xs {
		xs[len(xs)-1-i] = float64(i + 1)
	}
	s := summarize(xs, 99)
	if s.N != 1000 || s.TailPct != 99 || math.Abs(s.Tail-990.01) > 1e-9 || math.Abs(s.P50-500.5) > 1e-9 {
		t.Errorf("summarize = %+v", s)
	}
	// A nominal percentile below what the sample supports is kept; one above
	// it is lowered.
	if s := summarize(xs, 95); s.TailPct != 95 {
		t.Errorf("nominal 95 on 1000 samples reported p%g", s.TailPct)
	}
	if s := summarize(xs[:150], 99); s.TailPct != 90 {
		t.Errorf("nominal 99 on 150 samples reported p%g, want p90", s.TailPct)
	}
}

func TestMedianSliceRateIgnoresOneStalledSlice(t *testing.T) {
	start := time.Unix(1000, 0)
	var done []time.Time
	// Three one-second slices: 10, 2 (a stall) and 12 completions, plus one
	// before and one after the window that must not count.
	for i, n := range []int{10, 2, 12} {
		for k := 0; k < n; k++ {
			done = append(done, start.Add(time.Duration(i)*time.Second+time.Duration(k)*time.Millisecond))
		}
	}
	done = append(done, start.Add(-time.Millisecond), start.Add(3*time.Second))
	if got := sliceRates(done, start, time.Second, 3); got[0] != 10 || got[1] != 2 || got[2] != 12 {
		t.Errorf("sliceRates = %v, want [10 2 12]", got)
	}
	if got := medianSliceRate(done, start, time.Second, 3); got != 10 {
		t.Errorf("medianSliceRate = %g, want 10 (the mean would be 8)", got)
	}
	if got := median([]float64{4, 1, 3, 2}); got != 2.5 {
		t.Errorf("median of an even count = %g, want 2.5", got)
	}
}
