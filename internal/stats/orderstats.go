package stats

import (
	"cmp"
	"slices"
)

// OrderStats is a sorted multiset of float64s that grows by merging batches:
// the incremental form of Median for a population that only gains members
// between queries, such as a stage's completed execution times. The zero
// value is empty and ready to use.
type OrderStats struct {
	sorted []float64
}

// Merge adds batch to the multiset in O(n + k log(n+k)) for n kept and k new
// values: a sort of the batch, a binary search per new value and at most one
// move per kept value. It sorts batch in place.
func (o *OrderStats) Merge(batch ...float64) {
	k := len(batch)
	if k == 0 {
		return
	}
	slices.Sort(batch)
	n := len(o.sorted)
	s := slices.Grow(o.sorted, k)[:n+k]
	// Place the batch largest first. The kept values above batch[j] move up
	// by the j+1 batch values that still go below them, one block copy per
	// batch value, so each kept value moves at most once.
	top := n
	for j := k - 1; j >= 0; j-- {
		v := batch[j]
		lo, hi := 0, top
		for lo < hi {
			m := int(uint(lo+hi) >> 1)
			if cmp.Less(v, s[m]) {
				hi = m
			} else {
				lo = m + 1
			}
		}
		copy(s[lo+j+1:top+j+1], s[lo:top])
		s[lo+j] = v
		top = lo
	}
	o.sorted = s
}

// Reset empties the multiset, keeping its storage.
func (o *OrderStats) Reset() { o.sorted = o.sorted[:0] }

// Len returns the number of values held.
func (o *OrderStats) Len() int { return len(o.sorted) }

// Median returns what Median returns for the same values, in O(1).
func (o *OrderStats) Median() (float64, bool) {
	if len(o.sorted) == 0 {
		return 0, false
	}
	return medianOfSorted(o.sorted), true
}
