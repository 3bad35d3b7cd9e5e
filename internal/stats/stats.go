// Package stats implements the summary statistics WIRE's predictor and the
// experiment harness rely on: medians (the paper's estimator of choice for
// skewed populations, §III-C), moving medians over MAPE intervals, basic
// moments, quantiles, and empirical CDFs.
package stats

import (
	"fmt"
	"math"
	"sort"
)

// Median returns the median of vals; for an even count it returns the mean
// of the two central order statistics. It returns ok=false for an empty
// input rather than inventing a value.
func Median(vals []float64) (m float64, ok bool) {
	n := len(vals)
	if n == 0 {
		return 0, false
	}
	s := append([]float64(nil), vals...)
	sort.Float64s(s)
	return medianOfSorted(s), true
}

// medianOfSorted is Median of an already sorted, non-empty slice.
func medianOfSorted(s []float64) float64 {
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// Mean returns the arithmetic mean, or ok=false for empty input.
func Mean(vals []float64) (float64, bool) {
	if len(vals) == 0 {
		return 0, false
	}
	s := 0.0
	for _, v := range vals {
		s += v
	}
	return s / float64(len(vals)), true
}

// StdDev returns the population standard deviation, or ok=false for empty
// input.
func StdDev(vals []float64) (float64, bool) {
	m, ok := Mean(vals)
	if !ok {
		return 0, false
	}
	ss := 0.0
	for _, v := range vals {
		d := v - m
		ss += d * d
	}
	return math.Sqrt(ss / float64(len(vals))), true
}

// MeanStd returns both moments at once; convenient for report rows.
func MeanStd(vals []float64) (mean, std float64) {
	mean, _ = Mean(vals)
	std, _ = StdDev(vals)
	return mean, std
}

// Quantile returns the q-th quantile (0 ≤ q ≤ 1) using linear interpolation
// between order statistics, or ok=false for empty input.
func Quantile(vals []float64, q float64) (float64, bool) {
	n := len(vals)
	if n == 0 {
		return 0, false
	}
	if q <= 0 {
		q = 0
	}
	if q >= 1 {
		q = 1
	}
	s := append([]float64(nil), vals...)
	sort.Float64s(s)
	pos := q * float64(n-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	if lo == hi {
		return s[lo], true
	}
	frac := pos - float64(lo)
	return s[lo]*(1-frac) + s[hi]*frac, true
}

// Min returns the smallest value, or ok=false for empty input.
func Min(vals []float64) (float64, bool) {
	if len(vals) == 0 {
		return 0, false
	}
	m := vals[0]
	for _, v := range vals[1:] {
		if v < m {
			m = v
		}
	}
	return m, true
}

// Max returns the largest value, or ok=false for empty input.
func Max(vals []float64) (float64, bool) {
	if len(vals) == 0 {
		return 0, false
	}
	m := vals[0]
	for _, v := range vals[1:] {
		if v > m {
			m = v
		}
	}
	return m, true
}

// MovingMedian maintains the median of the most recent Window observations.
// WIRE feeds it one batch per MAPE interval so predictions track the
// "longer-term and more-consistent trends" (§III-C design goal 2) without
// being dominated by one noisy interval. A Window of zero keeps everything.
type MovingMedian struct {
	window int
	values []float64
}

// NewMovingMedian returns a moving median over the last window observations
// (0 = unbounded).
func NewMovingMedian(window int) *MovingMedian {
	if window < 0 {
		panic(fmt.Sprintf("stats: negative window %d", window))
	}
	return &MovingMedian{window: window}
}

// Push adds one observation, evicting the oldest when the window is full.
func (m *MovingMedian) Push(v float64) {
	m.values = append(m.values, v)
	if m.window > 0 && len(m.values) > m.window {
		// Shift rather than reslice so the backing array doesn't grow
		// without bound across thousands of intervals.
		copy(m.values, m.values[1:])
		m.values = m.values[:m.window]
	}
}

// Median returns the current median, ok=false when empty.
func (m *MovingMedian) Median() (float64, bool) { return Median(m.values) }

// CDF is an empirical cumulative distribution built from a sample.
type CDF struct {
	sorted []float64
}

// NewCDF builds an empirical CDF from vals (copied and sorted).
func NewCDF(vals []float64) *CDF {
	s := append([]float64(nil), vals...)
	sort.Float64s(s)
	return &CDF{sorted: s}
}

// P returns the empirical probability P[X ≤ x].
func (c *CDF) P(x float64) float64 {
	if len(c.sorted) == 0 {
		return 0
	}
	idx := sort.SearchFloat64s(c.sorted, x)
	// Include all entries equal to x.
	for idx < len(c.sorted) && c.sorted[idx] <= x {
		idx++
	}
	return float64(idx) / float64(len(c.sorted))
}

// Len returns the sample count.
func (c *CDF) Len() int { return len(c.sorted) }

// Histogram buckets vals into n equal-width bins over [min, max] and is used
// by the report package to sketch distributions in text output.
func Histogram(vals []float64, n int, min, max float64) []int {
	if n <= 0 || max <= min {
		return nil
	}
	bins := make([]int, n)
	w := (max - min) / float64(n)
	for _, v := range vals {
		if v < min || v > max {
			continue
		}
		i := int((v - min) / w)
		if i >= n {
			i = n - 1
		}
		bins[i]++
	}
	return bins
}
