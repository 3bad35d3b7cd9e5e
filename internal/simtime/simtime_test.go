package simtime

import (
	"math"
	"testing"
	"testing/quick"
)

func TestComparisons(t *testing.T) {
	if !Before(1, 2) || Before(2, 1) || Before(1, 1) {
		t.Fatal("Before misbehaves")
	}
	if !After(2, 1) || After(1, 2) || After(1, 1) {
		t.Fatal("After misbehaves")
	}
	if !AtOrBefore(1, 1) || !AtOrBefore(1, 2) || AtOrBefore(2, 1) {
		t.Fatal("AtOrBefore misbehaves")
	}
	if !AtOrAfter(1, 1) || !AtOrAfter(2, 1) || AtOrAfter(1, 2) {
		t.Fatal("AtOrAfter misbehaves")
	}
}

func TestNextBoundary(t *testing.T) {
	cases := []struct {
		origin, now Time
		period      Duration
		want        Time
	}{
		{0, 0, 60, 60},
		{0, 59, 60, 60},
		{0, 60, 60, 120}, // exactly on a boundary: next one is strictly later
		{0, 61, 60, 120},
		{10, 10, 60, 70},
		{10, 69, 60, 70},
		{10, 70, 60, 130},
		{100, 50, 60, 100}, // before origin: first boundary is origin itself
	}
	for _, c := range cases {
		got := NextBoundary(c.origin, c.period, c.now)
		if !sameInstant(got, c.want) {
			t.Errorf("NextBoundary(%v,%v,%v) = %v, want %v", c.origin, c.period, c.now, got, c.want)
		}
	}
}

func TestNextBoundaryPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic for non-positive period")
		}
	}()
	NextBoundary(0, 0, 10)
}

func TestNextBoundaryAlwaysAfterNow(t *testing.T) {
	f := func(origin, now float64, periodRaw float64) bool {
		period := math.Mod(math.Abs(periodRaw), 1e6) + 1e-3
		origin = math.Mod(origin, 1e9)
		now = math.Mod(math.Abs(now), 1e9)
		b := NextBoundary(origin, period, now)
		return After(b, now) || sameInstant(b, origin) && now < origin
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestUnitsCharged(t *testing.T) {
	cases := []struct {
		start, end Time
		u          Duration
		want       int
	}{
		{0, 0, 60, 0},
		{0, 1, 60, 1},
		{0, 60, 60, 1},
		{0, 61, 60, 2},
		{0, 120, 60, 2},
		{30, 90, 60, 1},
		{0, 3600, 60, 60},
		{10, 5, 60, 0}, // negative span is free
	}
	for _, c := range cases {
		if got := UnitsCharged(c.start, c.end, c.u); got != c.want {
			t.Errorf("UnitsCharged(%v,%v,%v) = %d, want %d", c.start, c.end, c.u, got, c.want)
		}
	}
}

func TestUnitsChargedMonotone(t *testing.T) {
	f := func(spanRaw, extraRaw float64) bool {
		span := math.Mod(math.Abs(spanRaw), 1e6)
		extra := math.Mod(math.Abs(extraRaw), 1e6)
		u := 60.0
		return UnitsCharged(0, span+extra, u) >= UnitsCharged(0, span, u)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestUnitsChargedPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic for non-positive unit")
		}
	}()
	UnitsCharged(0, 10, 0)
}

func TestFormatDuration(t *testing.T) {
	cases := []struct {
		d    Duration
		want string
	}{
		{30, "30s"},
		{90, "1.5m"},
		{3600, "1h"},
		{5400, "1.5h"},
		{0.25, "0.25s"},
	}
	for _, c := range cases {
		if got := FormatDuration(c.d); got != c.want {
			t.Errorf("FormatDuration(%v) = %q, want %q", c.d, got, c.want)
		}
	}
}

// sameInstant reports whether a and b denote the same instant within Eps.
func sameInstant(a, b Time) bool { return math.Abs(a-b) <= Eps }
