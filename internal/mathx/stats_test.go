package mathx

import (
	"math"
	"testing"
	"testing/quick"
)

func almost(a, b, tol float64) bool { return math.Abs(a-b) <= tol }

func TestMeanStdKnown(t *testing.T) {
	tests := []struct {
		name     string
		xs       []float64
		mean, sd float64
	}{
		{"empty", nil, 0, 0},
		{"single", []float64{4}, 4, 0},
		{"constant", []float64{2, 2, 2, 2}, 2, 0},
		{"simple", []float64{1, 2, 3, 4}, 2.5, math.Sqrt(1.25)},
		{"negatives", []float64{-1, 1}, 0, 1},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			m, s := MeanStd(tt.xs)
			if !almost(m, tt.mean, 1e-12) || !almost(s, tt.sd, 1e-12) {
				t.Errorf("MeanStd = (%g, %g), want (%g, %g)", m, s, tt.mean, tt.sd)
			}
			if !almost(Mean(tt.xs), tt.mean, 1e-12) {
				t.Errorf("Mean = %g, want %g", Mean(tt.xs), tt.mean)
			}
		})
	}
}

func TestPercentile(t *testing.T) {
	xs := []float64{10, 20, 30, 40}
	tests := []struct {
		p    float64
		want float64
	}{
		{0, 10}, {100, 40}, {50, 25}, {25, 17.5}, {-5, 10}, {110, 40},
	}
	for _, tt := range tests {
		if got := Percentile(xs, tt.p); !almost(got, tt.want, 1e-12) {
			t.Errorf("Percentile(%g) = %g, want %g", tt.p, got, tt.want)
		}
	}
	if Percentile(nil, 50) != 0 {
		t.Error("Percentile(empty) != 0")
	}
}

func TestPercentileDoesNotMutate(t *testing.T) {
	xs := []float64{3, 1, 2}
	Percentile(xs, 50)
	if xs[0] != 3 || xs[1] != 1 || xs[2] != 2 {
		t.Errorf("input mutated: %v", xs)
	}
}

func TestPercentileMonotone(t *testing.T) {
	if err := quick.Check(func(seed uint64) bool {
		r := NewRNG(seed)
		xs := make([]float64, 1+r.Intn(40))
		for i := range xs {
			xs[i] = r.Normal(0, 10)
		}
		prev := math.Inf(-1)
		for p := 0.0; p <= 100; p += 7 {
			v := Percentile(xs, p)
			if v < prev-1e-9 {
				return false
			}
			prev = v
		}
		return true
	}, nil); err != nil {
		t.Error(err)
	}
}

func TestMaxMin(t *testing.T) {
	xs := []float64{3, -5, 7, 0}
	if Max(xs) != 7 {
		t.Errorf("Max = %g", Max(xs))
	}
	if Max(nil) != 0 {
		t.Error("empty Max != 0")
	}
}

func TestArgMax(t *testing.T) {
	tests := []struct {
		xs   []float64
		want int
	}{
		{nil, -1},
		{[]float64{5}, 0},
		{[]float64{1, 9, 3}, 1},
		{[]float64{7, 7, 7}, 0}, // ties resolve low
	}
	for _, tt := range tests {
		if got := ArgMax(tt.xs); got != tt.want {
			t.Errorf("ArgMax(%v) = %d, want %d", tt.xs, got, tt.want)
		}
	}
}
