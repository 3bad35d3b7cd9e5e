package main

import (
	"math"
	"sort"
	"time"
)

// median returns the middle value of xs (mean of the two middle values for
// an even count); 0 for an empty slice. xs is not modified.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return quantileSorted(s, 0.5)
}

// quantileSorted interpolates the q-quantile (0..1) of an ascending slice.
func quantileSorted(s []float64, q float64) float64 {
	if len(s) == 0 {
		return 0
	}
	pos := q * float64(len(s)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	if lo == hi {
		return s[lo]
	}
	return s[lo] + (pos-float64(lo))*(s[hi]-s[lo])
}

// tailPercentiles are the candidates for a reported tail, highest first.
var tailPercentiles = []float64{99, 95, 90, 75}

// tailPercentile picks the highest candidate percentile that still has at
// least ten samples beyond it, so the reported tail is never one or two
// outliers. With fewer than 40 samples it falls back to the median.
func tailPercentile(n int) float64 {
	for _, p := range tailPercentiles {
		if float64(n)*(100-p)/100 >= 10 {
			return p
		}
	}
	return 50
}

// latencySummary is a pooled latency sample reduced to what is reported.
type latencySummary struct {
	N       int
	P50     float64
	Tail    float64
	TailPct float64
}

// summarize reduces a latency sample to its median and its tail at the
// nominal percentile, lowered only when the sample is too small to have ten
// values beyond it.
func summarize(ms []float64, nominal float64) latencySummary {
	s := append([]float64(nil), ms...)
	sort.Float64s(s)
	p := min(nominal, tailPercentile(len(s)))
	return latencySummary{N: len(s), P50: quantileSorted(s, 0.5), Tail: quantileSorted(s, p/100), TailPct: p}
}

// sliceRates cuts [start, start+n*width) into n equal slices, counts the
// completion instants falling in each, and returns the per-slice rates in
// events per second. Instants outside the window are ignored.
func sliceRates(done []time.Time, start time.Time, width time.Duration, n int) []float64 {
	counts := make([]float64, n)
	for _, t := range done {
		if t.Before(start) {
			continue
		}
		i := int(t.Sub(start) / width)
		if i >= 0 && i < n {
			counts[i]++
		}
	}
	for i := range counts {
		counts[i] /= width.Seconds()
	}
	return counts
}

// medianSliceRate is the median of sliceRates: one stalled or boosted slice
// (a GC cycle, a scheduler hiccup) moves a mean but not this.
func medianSliceRate(done []time.Time, start time.Time, width time.Duration, n int) float64 {
	return median(sliceRates(done, start, width, n))
}
