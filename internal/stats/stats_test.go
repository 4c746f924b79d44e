package stats

import (
	"math"
	"testing"
	"testing/quick"
)

func TestRNGDeterminism(t *testing.T) {
	a := NewRNG(42)
	b := NewRNG(42)
	for i := 0; i < 1000; i++ {
		if a.Uint64() != b.Uint64() {
			t.Fatalf("streams diverged at %d", i)
		}
	}
}

func TestRNGSeedsDiffer(t *testing.T) {
	a := NewRNG(1)
	b := NewRNG(2)
	same := 0
	for i := 0; i < 100; i++ {
		if a.Uint64() == b.Uint64() {
			same++
		}
	}
	if same > 2 {
		t.Errorf("different seeds produced %d/100 identical outputs", same)
	}
}

func TestRNGSplitIndependence(t *testing.T) {
	r := NewRNG(7)
	a := r.Split()
	b := r.Split()
	same := 0
	for i := 0; i < 100; i++ {
		if a.Uint64() == b.Uint64() {
			same++
		}
	}
	if same > 2 {
		t.Errorf("split streams produced %d/100 identical outputs", same)
	}
}

func TestFloat64Range(t *testing.T) {
	r := NewRNG(3)
	for i := 0; i < 100000; i++ {
		v := r.Float64()
		if v < 0 || v >= 1 {
			t.Fatalf("Float64() = %v out of [0,1)", v)
		}
	}
}

func TestFloat64Uniformity(t *testing.T) {
	r := NewRNG(11)
	const buckets = 10
	const n = 200000
	var counts [buckets]int
	for i := 0; i < n; i++ {
		counts[int(r.Float64()*buckets)]++
	}
	want := float64(n) / buckets
	for i, c := range counts {
		if math.Abs(float64(c)-want) > want*0.05 {
			t.Errorf("bucket %d has %d, want ~%.0f", i, c, want)
		}
	}
}

func TestExpMean(t *testing.T) {
	r := NewRNG(5)
	const mean = 1800.0 // 30 min MTTI
	var s Summary
	for i := 0; i < 200000; i++ {
		s.Add(r.Exp(mean))
	}
	if math.Abs(s.Mean()-mean) > mean*0.02 {
		t.Errorf("Exp mean = %v, want ~%v", s.Mean(), mean)
	}
	// Exponential: stddev == mean.
	if math.Abs(s.StdDev()-mean) > mean*0.05 {
		t.Errorf("Exp stddev = %v, want ~%v", s.StdDev(), mean)
	}
	if s.Min() < 0 {
		t.Errorf("Exp produced negative variate %v", s.Min())
	}
}

func TestExpPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("Exp(0) should panic")
		}
	}()
	NewRNG(1).Exp(0)
}

func TestIntnRangeAndPanic(t *testing.T) {
	r := NewRNG(9)
	for i := 0; i < 10000; i++ {
		v := r.Intn(7)
		if v < 0 || v >= 7 {
			t.Fatalf("Intn(7) = %d", v)
		}
	}
	defer func() {
		if recover() == nil {
			t.Error("Intn(0) should panic")
		}
	}()
	r.Intn(0)
}

func TestBernoulli(t *testing.T) {
	r := NewRNG(13)
	hits := 0
	const n = 100000
	for i := 0; i < n; i++ {
		if r.Bernoulli(0.85) {
			hits++
		}
	}
	got := float64(hits) / n
	if math.Abs(got-0.85) > 0.01 {
		t.Errorf("Bernoulli(0.85) frequency = %v", got)
	}
	if r.Bernoulli(0) {
		t.Error("Bernoulli(0) returned true")
	}
	if !r.Bernoulli(1) {
		t.Error("Bernoulli(1) returned false")
	}
}

func TestNormal(t *testing.T) {
	r := NewRNG(17)
	var s Summary
	for i := 0; i < 100000; i++ {
		s.Add(r.Normal(10, 2))
	}
	if math.Abs(s.Mean()-10) > 0.05 {
		t.Errorf("Normal mean = %v", s.Mean())
	}
	if math.Abs(s.StdDev()-2) > 0.05 {
		t.Errorf("Normal stddev = %v", s.StdDev())
	}
}

func TestSummaryBasics(t *testing.T) {
	var s Summary
	for _, x := range []float64{2, 4, 4, 4, 5, 5, 7, 9} {
		s.Add(x)
	}
	if s.N() != 8 {
		t.Errorf("N = %d", s.N())
	}
	if s.Mean() != 5 {
		t.Errorf("Mean = %v", s.Mean())
	}
	// Unbiased sample variance of this classic set is 32/7.
	if math.Abs(s.Variance()-32.0/7.0) > 1e-12 {
		t.Errorf("Variance = %v, want %v", s.Variance(), 32.0/7.0)
	}
	if s.Min() != 2 || s.Max() != 9 {
		t.Errorf("Min/Max = %v/%v", s.Min(), s.Max())
	}
}

func TestSummaryMergeMatchesSequential(t *testing.T) {
	f := func(xs []float64, split uint8) bool {
		// Filter out non-finite values quick may generate.
		clean := xs[:0]
		for _, x := range xs {
			if !math.IsNaN(x) && !math.IsInf(x, 0) && math.Abs(x) < 1e9 {
				clean = append(clean, x)
			}
		}
		xs = clean
		if len(xs) == 0 {
			return true
		}
		k := int(split) % (len(xs) + 1)
		var whole, a, b Summary
		for _, x := range xs {
			whole.Add(x)
		}
		for _, x := range xs[:k] {
			a.Add(x)
		}
		for _, x := range xs[k:] {
			b.Add(x)
		}
		a.Merge(b)
		if a.N() != whole.N() {
			return false
		}
		scale := math.Max(1, math.Abs(whole.Mean()))
		if math.Abs(a.Mean()-whole.Mean()) > 1e-9*scale {
			return false
		}
		vscale := math.Max(1, whole.Variance())
		return math.Abs(a.Variance()-whole.Variance()) <= 1e-6*vscale
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestSummaryMergeEmpty(t *testing.T) {
	var a, b Summary
	a.Add(3)
	a.Merge(b) // merging empty is a no-op
	if a.N() != 1 || a.Mean() != 3 {
		t.Errorf("merge empty changed summary: %v", a.String())
	}
	b.Merge(a) // merging into empty copies
	if b.N() != 1 || b.Mean() != 3 {
		t.Errorf("merge into empty: n=%d mean=%v", b.N(), b.Mean())
	}
}

func TestCI95ShrinksWithN(t *testing.T) {
	r := NewRNG(23)
	var small, large Summary
	for i := 0; i < 100; i++ {
		small.Add(r.Float64())
	}
	for i := 0; i < 10000; i++ {
		large.Add(r.Float64())
	}
	if large.CI95() >= small.CI95() {
		t.Errorf("CI95 did not shrink: %v vs %v", large.CI95(), small.CI95())
	}
}
