package mathx

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
			t.Fatalf("streams diverged at draw %d", i)
		}
	}
}

func TestRNGDistinctSeeds(t *testing.T) {
	a := NewRNG(1)
	b := NewRNG(2)
	same := 0
	for i := 0; i < 100; i++ {
		if a.Uint64() == b.Uint64() {
			same++
		}
	}
	if same > 0 {
		t.Errorf("%d/100 draws identical across different seeds", same)
	}
}

func TestRNGFloat64Range(t *testing.T) {
	if err := quick.Check(func(seed uint64) bool {
		r := NewRNG(seed)
		for i := 0; i < 100; i++ {
			f := r.Float64()
			if f < 0 || f >= 1 {
				return false
			}
		}
		return true
	}, nil); err != nil {
		t.Error(err)
	}
}

func TestIntnBounds(t *testing.T) {
	r := NewRNG(7)
	for n := 1; n < 50; n++ {
		for i := 0; i < 20; i++ {
			v := r.Intn(n)
			if v < 0 || v >= n {
				t.Fatalf("Intn(%d) = %d out of range", n, v)
			}
		}
	}
}

func TestIntnPanicsOnNonPositive(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("Intn(0) did not panic")
		}
	}()
	NewRNG(1).Intn(0)
}

func TestIntBetween(t *testing.T) {
	r := NewRNG(9)
	seen := make(map[int]bool)
	for i := 0; i < 200; i++ {
		v := r.IntBetween(3, 5)
		if v < 3 || v > 5 {
			t.Fatalf("IntBetween(3,5) = %d", v)
		}
		seen[v] = true
	}
	for v := 3; v <= 5; v++ {
		if !seen[v] {
			t.Errorf("value %d never drawn in 200 tries", v)
		}
	}
}

func TestNormalMoments(t *testing.T) {
	r := NewRNG(11)
	const n = 50000
	xs := make([]float64, n)
	for i := range xs {
		xs[i] = r.Normal(5, 2)
	}
	mean, std := MeanStd(xs)
	if math.Abs(mean-5) > 0.05 {
		t.Errorf("mean = %.4f, want ≈ 5", mean)
	}
	if math.Abs(std-2) > 0.05 {
		t.Errorf("std = %.4f, want ≈ 2", std)
	}
}

func TestPoissonMoments(t *testing.T) {
	r := NewRNG(13)
	for _, lambda := range []float64{0.3, 2, 8, 50} {
		const n = 30000
		var sum float64
		for i := 0; i < n; i++ {
			sum += float64(r.Poisson(lambda))
		}
		mean := sum / n
		if math.Abs(mean-lambda) > lambda*0.05+0.05 {
			t.Errorf("Poisson(%g) mean = %.3f", lambda, mean)
		}
	}
}

func TestPoissonNonNegative(t *testing.T) {
	if err := quick.Check(func(seed uint64) bool {
		r := NewRNG(seed)
		for _, lambda := range []float64{-1, 0, 0.1, 40} {
			if r.Poisson(lambda) < 0 {
				return false
			}
		}
		return true
	}, nil); err != nil {
		t.Error(err)
	}
}

func TestExponentialPositive(t *testing.T) {
	r := NewRNG(17)
	for i := 0; i < 100; i++ {
		if v := r.Exponential(2); v < 0 {
			t.Fatalf("Exponential < 0: %g", v)
		}
	}
}

func TestForkNamedStable(t *testing.T) {
	a := NewRNG(5).ForkNamed("alice")
	b := NewRNG(5).ForkNamed("alice")
	c := NewRNG(5).ForkNamed("bob")
	if a.Uint64() != b.Uint64() {
		t.Error("same name produced different streams")
	}
	if NewRNG(5).ForkNamed("alice").Uint64() == c.Uint64() {
		t.Error("different names produced same stream")
	}
}

func TestShuffleIsPermutation(t *testing.T) {
	r := NewRNG(23)
	xs := []int{1, 2, 3, 4, 5, 6, 7, 8}
	orig := append([]int(nil), xs...)
	Shuffle(r, xs)
	counts := make(map[int]int)
	for _, v := range xs {
		counts[v]++
	}
	for _, v := range orig {
		if counts[v] != 1 {
			t.Fatalf("shuffle lost or duplicated %d: %v", v, xs)
		}
	}
}

func TestPick(t *testing.T) {
	r := NewRNG(29)
	items := []string{"a", "b", "c"}
	seen := make(map[string]bool)
	for i := 0; i < 100; i++ {
		seen[Pick(r, items)] = true
	}
	if len(seen) != 3 {
		t.Errorf("Pick covered %d/3 items in 100 draws", len(seen))
	}
}

func TestWeightedIndex(t *testing.T) {
	r := NewRNG(31)
	weights := []float64{0, 10, 0, 1}
	counts := make([]int, len(weights))
	for i := 0; i < 10000; i++ {
		idx := r.WeightedIndex(weights)
		if idx < 0 || idx >= len(weights) {
			t.Fatalf("index %d out of range", idx)
		}
		counts[idx]++
	}
	if counts[0] != 0 || counts[2] != 0 {
		t.Errorf("zero-weight indices drawn: %v", counts)
	}
	ratio := float64(counts[1]) / float64(counts[3])
	if ratio < 7 || ratio > 14 {
		t.Errorf("weight ratio %0.1f, want ≈ 10", ratio)
	}
}

func TestWeightedIndexAllZero(t *testing.T) {
	r := NewRNG(37)
	if idx := r.WeightedIndex([]float64{0, 0}); idx != 0 {
		t.Errorf("all-zero weights returned %d, want 0", idx)
	}
}

func TestBoolProbability(t *testing.T) {
	r := NewRNG(41)
	n, hits := 20000, 0
	for i := 0; i < n; i++ {
		if r.Bool(0.25) {
			hits++
		}
	}
	p := float64(hits) / float64(n)
	if math.Abs(p-0.25) > 0.02 {
		t.Errorf("Bool(0.25) hit rate %.3f", p)
	}
}
