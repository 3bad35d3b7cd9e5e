package stats

import (
	"math/rand"
	"slices"
	"testing"
)

// TestOrderStatsMatchesMedian merges random batches — empty ones, single
// values, ties, zeros — and holds Median to the sort-every-time Median of
// everything merged since the last Reset.
func TestOrderStatsMatchesMedian(t *testing.T) {
	for seed := int64(0); seed < 50; seed++ {
		rng := rand.New(rand.NewSource(seed))
		var o OrderStats
		var all []float64
		for step := 0; step < 40; step++ {
			if rng.Intn(15) == 0 {
				o.Reset()
				all = all[:0]
			}
			batch := make([]float64, rng.Intn(6))
			for i := range batch {
				switch rng.Intn(4) {
				case 0:
					batch[i] = 0
				case 1:
					batch[i] = float64(rng.Intn(5)) // ties
				default:
					batch[i] = rng.ExpFloat64() * 100
				}
			}
			all = append(all, batch...)
			o.Merge(batch...)

			want, wantOK := Median(all)
			got, ok := o.Median()
			if ok != wantOK || got != want || o.Len() != len(all) {
				t.Fatalf("seed %d step %d: Median %v,%v Len %d; want %v,%v over %d values", seed, step, got, ok, o.Len(), want, wantOK, len(all))
			}
			if !slices.IsSorted(o.sorted) {
				t.Fatalf("seed %d step %d: kept values not sorted: %v", seed, step, o.sorted)
			}
		}
	}
}

func TestOrderStatsEmpty(t *testing.T) {
	var o OrderStats
	if _, ok := o.Median(); ok || o.Len() != 0 {
		t.Fatal("zero OrderStats is not empty")
	}
	o.Merge(3, 1, 2)
	o.Reset()
	if _, ok := o.Median(); ok || o.Len() != 0 {
		t.Fatal("Reset left values behind")
	}
}
