package stats

import (
	"math"
	"math/rand"
	"sort"
	"testing"
	"testing/quick"
)

func TestMedian(t *testing.T) {
	cases := []struct {
		in   []float64
		want float64
		ok   bool
	}{
		{nil, 0, false},
		{[]float64{5}, 5, true},
		{[]float64{1, 3}, 2, true},
		{[]float64{3, 1, 2}, 2, true},
		{[]float64{4, 1, 3, 2}, 2.5, true},
		{[]float64{10, 10, 10}, 10, true},
	}
	for _, c := range cases {
		got, ok := Median(c.in)
		if ok != c.ok || (ok && got != c.want) {
			t.Errorf("Median(%v) = %v,%v want %v,%v", c.in, got, ok, c.want, c.ok)
		}
	}
}

func TestMedianDoesNotMutate(t *testing.T) {
	in := []float64{3, 1, 2}
	Median(in)
	if in[0] != 3 || in[1] != 1 || in[2] != 2 {
		t.Fatal("Median mutated its input")
	}
}

func TestMedianRobustToOutliers(t *testing.T) {
	// The paper prefers the median for skewed (Zipfian) populations; a
	// single huge straggler must not move it much.
	base := []float64{5, 5, 5, 5, 5, 5, 5, 5, 5}
	withStraggler := append(append([]float64(nil), base...), 1e6)
	m1, _ := Median(base)
	m2, _ := Median(withStraggler)
	if m2 > m1*1.2 {
		t.Fatalf("median moved from %v to %v on one straggler", m1, m2)
	}
}

func TestMeanStdDev(t *testing.T) {
	vals := []float64{2, 4, 4, 4, 5, 5, 7, 9}
	m, ok := Mean(vals)
	if !ok || m != 5 {
		t.Fatalf("Mean = %v,%v", m, ok)
	}
	s, ok := StdDev(vals)
	if !ok || math.Abs(s-2) > 1e-12 {
		t.Fatalf("StdDev = %v, want 2", s)
	}
	if _, ok := Mean(nil); ok {
		t.Fatal("Mean(nil) should not be ok")
	}
	if _, ok := StdDev(nil); ok {
		t.Fatal("StdDev(nil) should not be ok")
	}
	mm, ss := MeanStd(vals)
	if mm != 5 || math.Abs(ss-2) > 1e-12 {
		t.Fatalf("MeanStd = %v,%v", mm, ss)
	}
}

func TestQuantile(t *testing.T) {
	vals := []float64{1, 2, 3, 4, 5}
	for _, c := range []struct{ q, want float64 }{
		{0, 1}, {0.25, 2}, {0.5, 3}, {0.75, 4}, {1, 5}, {-1, 1}, {2, 5},
	} {
		got, ok := Quantile(vals, c.q)
		if !ok || math.Abs(got-c.want) > 1e-12 {
			t.Errorf("Quantile(%v) = %v, want %v", c.q, got, c.want)
		}
	}
	if _, ok := Quantile(nil, 0.5); ok {
		t.Fatal("Quantile(nil) should not be ok")
	}
}

func TestMinMax(t *testing.T) {
	vals := []float64{3, -1, 7, 2}
	if m, ok := Min(vals); !ok || m != -1 {
		t.Fatalf("Min = %v", m)
	}
	if m, ok := Max(vals); !ok || m != 7 {
		t.Fatalf("Max = %v", m)
	}
	if _, ok := Min(nil); ok {
		t.Fatal("Min(nil) ok")
	}
	if _, ok := Max(nil); ok {
		t.Fatal("Max(nil) ok")
	}
}

func TestMovingMedianWindow(t *testing.T) {
	m := NewMovingMedian(3)
	if _, ok := m.Median(); ok {
		t.Fatal("empty moving median reported a value")
	}
	for _, v := range []float64{1, 2, 3} {
		m.Push(v)
	}
	if got, _ := m.Median(); got != 2 {
		t.Fatalf("median = %v, want 2", got)
	}
	m.Push(100) // evicts 1; window = {2,3,100}
	if got, _ := m.Median(); got != 3 {
		t.Fatalf("median after eviction = %v, want 3", got)
	}
	if len(m.values) != 3 {
		t.Fatalf("window holds %d values, want 3", len(m.values))
	}
}

func TestMovingMedianUnbounded(t *testing.T) {
	m := NewMovingMedian(0)
	for i := 1; i <= 101; i++ {
		m.Push(float64(i))
	}
	if len(m.values) != 101 {
		t.Fatalf("unbounded window evicted: len=%d", len(m.values))
	}
	if got, _ := m.Median(); got != 51 {
		t.Fatalf("median = %v, want 51", got)
	}
}

func TestMovingMedianNegativeWindowPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	NewMovingMedian(-1)
}

func TestCDF(t *testing.T) {
	c := NewCDF([]float64{1, 2, 2, 3, 10})
	cases := []struct{ x, want float64 }{
		{0, 0}, {1, 0.2}, {2, 0.6}, {3, 0.8}, {9.99, 0.8}, {10, 1}, {11, 1},
	}
	for _, cs := range cases {
		if got := c.P(cs.x); math.Abs(got-cs.want) > 1e-12 {
			t.Errorf("P(%v) = %v, want %v", cs.x, got, cs.want)
		}
	}
	if c.Len() != 5 {
		t.Fatalf("Len = %d", c.Len())
	}
}

func TestCDFEmpty(t *testing.T) {
	c := NewCDF(nil)
	if c.P(5) != 0 || c.Len() != 0 {
		t.Fatal("empty CDF misbehaves")
	}
}

func TestCDFMonotone(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		vals := make([]float64, 50)
		for i := range vals {
			vals[i] = rng.NormFloat64() * 10
		}
		c := NewCDF(vals)
		prev := -1.0
		for x := -30.0; x <= 30; x += 0.5 {
			p := c.P(x)
			if p < prev || p < 0 || p > 1 {
				return false
			}
			prev = p
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestHistogram(t *testing.T) {
	bins := Histogram([]float64{0.5, 1.5, 1.6, 2.5, 99}, 3, 0, 3)
	want := []int{1, 2, 1}
	for i := range want {
		if bins[i] != want[i] {
			t.Fatalf("bins = %v, want %v", bins, want)
		}
	}
	if Histogram(nil, 0, 0, 1) != nil {
		t.Fatal("degenerate histogram should be nil")
	}
	if Histogram(nil, 3, 5, 1) != nil {
		t.Fatal("inverted range should be nil")
	}
	// Value exactly at max lands in the last bin.
	b := Histogram([]float64{3}, 3, 0, 3)
	if b[2] != 1 {
		t.Fatalf("max-edge value misplaced: %v", b)
	}
}

// Property: the median lies between min and max of the sample.
func TestMedianBoundedProperty(t *testing.T) {
	f := func(seed int64, nRaw uint8) bool {
		n := int(nRaw%40) + 1
		rng := rand.New(rand.NewSource(seed))
		vals := make([]float64, n)
		for i := range vals {
			vals[i] = rng.NormFloat64() * 100
		}
		m, ok := Median(vals)
		if !ok {
			return false
		}
		sort.Float64s(vals)
		return m >= vals[0]-1e-9 && m <= vals[n-1]+1e-9
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}
