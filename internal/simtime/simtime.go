// Package simtime defines the time conventions shared by the WIRE
// simulation stack.
//
// All simulated clocks are continuous and measured in seconds from the
// start of the run. Using a plain float64 keeps the discrete-event engine,
// the steering algebra (Algorithm 3 accumulates fractional occupancy), and
// the statistics code free of unit conversions; helpers in this package
// keep boundary arithmetic (charging units, MAPE intervals) in one place.
package simtime

import (
	"fmt"
	"math"
)

// Time is an absolute simulated time in seconds since the start of a run.
type Time = float64

// Duration is a span of simulated time in seconds.
type Duration = float64

// Common durations, in seconds.
const (
	Minute Duration = 60
	Hour   Duration = 3600
)

// Eps is the tolerance used when comparing simulated times. Event times are
// produced by sums of generated durations; exact float equality is not
// meaningful at charging boundaries.
const Eps = 1e-9

// Before reports whether a is strictly before b beyond tolerance.
func Before(a, b Time) bool { return a < b-Eps }

// After reports whether a is strictly after b beyond tolerance.
func After(a, b Time) bool { return a > b+Eps }

// AtOrBefore reports whether a is at or before b within tolerance.
func AtOrBefore(a, b Time) bool { return a <= b+Eps }

// AtOrAfter reports whether a is at or after b within tolerance.
func AtOrAfter(a, b Time) bool { return a >= b-Eps }

// NextBoundary returns the first multiple of period that is strictly after
// now, measured from origin. It is used to find the next charging boundary
// of an instance whose billing started at origin.
//
// NextBoundary panics if period is not positive.
func NextBoundary(origin Time, period Duration, now Time) Time {
	if period <= 0 {
		panic(fmt.Sprintf("simtime: non-positive period %v", period))
	}
	elapsed := now - origin
	if elapsed < 0 {
		return origin
	}
	k := math.Floor(elapsed/period + Eps)
	b := origin + (k+1)*period
	// Guard against k undershooting when elapsed is an exact multiple.
	if !After(b, now) {
		b += period
	}
	return b
}

// UnitsCharged returns the number of whole charging units billed for an
// instance active on [start, end] with charging unit u: ceil((end-start)/u),
// with a minimum of one unit for any strictly positive occupancy. A zero or
// negative span costs nothing.
func UnitsCharged(start, end Time, u Duration) int {
	if u <= 0 {
		panic(fmt.Sprintf("simtime: non-positive charging unit %v", u))
	}
	span := end - start
	if span <= Eps {
		return 0
	}
	units := math.Ceil(span/u - Eps)
	if units < 1 {
		units = 1
	}
	return int(units)
}

// FormatDuration renders a duration compactly for reports, e.g. "3m", "1.5h".
func FormatDuration(d Duration) string {
	switch {
	case d >= Hour:
		return trimZero(d/Hour) + "h"
	case d >= Minute:
		return trimZero(d/Minute) + "m"
	default:
		return trimZero(d) + "s"
	}
}

func trimZero(v float64) string {
	s := fmt.Sprintf("%.2f", v)
	for len(s) > 0 && s[len(s)-1] == '0' {
		s = s[:len(s)-1]
	}
	if len(s) > 0 && s[len(s)-1] == '.' {
		s = s[:len(s)-1]
	}
	return s
}
