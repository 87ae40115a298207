package main

import (
	"go/ast"
	"go/parser"
	"go/token"
	"math"
	"os"
	"strings"
	"testing"
)

func near(a, b float64) bool { return math.Abs(a-b) <= 1e-9*math.Max(1, math.Abs(b)) }

func TestQuantileAndMedian(t *testing.T) {
	xs := []float64{5, 1, 4, 2, 3}
	if got := median(xs); got != 3 {
		t.Errorf("median = %v, want 3", got)
	}
	if xs[0] != 5 {
		t.Error("median sorted its argument in place")
	}
	asc := sorted(xs)
	for _, c := range []struct{ q, want float64 }{{0, 1}, {1, 5}, {0.5, 3}, {0.25, 2}, {0.9, 4.6}} {
		if got := quantile(asc, c.q); !near(got, c.want) {
			t.Errorf("quantile(%v) = %v, want %v", c.q, got, c.want)
		}
	}
	if !math.IsNaN(quantile(nil, 0.5)) {
		t.Error("quantile of no samples must be NaN, not a number that looks measured")
	}
	if got := median([]float64{1, 2}); got != 1.5 {
		t.Errorf("median of two = %v, want 1.5", got)
	}
}

// The driver measures spread with Python's statistics.quantiles(xs, n=4);
// these are that function's outputs.
func TestQuartilesMatchPython(t *testing.T) {
	q1, q2, q3 := quartiles([]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10})
	if !near(q1, 2.75) || !near(q2, 5.5) || !near(q3, 8.25) {
		t.Errorf("quartiles(1..10) = %v %v %v, want 2.75 5.5 8.25", q1, q2, q3)
	}
	q1, q2, q3 = quartiles([]float64{10, 3, 7})
	if !near(q1, 3) || !near(q2, 7) || !near(q3, 10) {
		t.Errorf("quartiles(3,7,10) = %v %v %v, want 3 7 10", q1, q2, q3)
	}
	if got := spread([]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}); !near(got, 1) {
		t.Errorf("spread(1..10) = %v, want 1", got)
	}
}

// A tail percentile is lowered to the highest one with at least ten
// samples beyond it.
func TestAllowedPercentile(t *testing.T) {
	for _, c := range []struct {
		n          int
		want, used float64
	}{
		{1000, 0.99, 0.99}, // exactly ten beyond
		{999, 0.99, 0.95},
		{200, 0.99, 0.95},
		{199, 0.99, 0.90},
		{100, 0.90, 0.90},
		{99, 0.90, 0.75},
		{40, 0.90, 0.75},
		{39, 0.90, 0.50},
		{5, 0.99, 0.50},
		{100000, 0.90, 0.90}, // never above what was asked
		{100000, 0.999, 0.999},
	} {
		if got := allowedPercentile(c.n, c.want); got != c.used {
			t.Errorf("allowedPercentile(%d, %v) = %v, want %v", c.n, c.want, got, c.used)
		}
	}
	xs := make([]float64, 150)
	for i := range xs {
		xs[i] = float64(i)
	}
	v, used := tail(xs, 0.99)
	if used != 0.90 || !near(v, 0.90*149) {
		t.Errorf("tail(0..149, p99) = %v at p%v, want %v at p90", v, used*100, 0.90*149)
	}
}

// obs histograms have log2 buckets, so a quantile read from one is a
// bucket edge. The harness may read their exact counts and sums, never
// their quantiles: no non-test file may name a quantile accessor.
func TestNoQuantileComesFromObsHistograms(t *testing.T) {
	banned := map[string]bool{"Quantile": true, "P50US": true, "P90US": true, "P99US": true, "MaxUS": true, "MaxNanos": true, "Buckets": true}
	entries, err := os.ReadDir(".")
	if err != nil {
		t.Fatal(err)
	}
	fset := token.NewFileSet()
	checked := 0
	for _, e := range entries {
		name := e.Name()
		if !strings.HasSuffix(name, ".go") || strings.HasSuffix(name, "_test.go") {
			continue
		}
		f, err := parser.ParseFile(fset, name, nil, 0)
		if err != nil {
			t.Fatal(err)
		}
		checked++
		ast.Inspect(f, func(n ast.Node) bool {
			if sel, ok := n.(*ast.SelectorExpr); ok && banned[sel.Sel.Name] {
				t.Errorf("%s reads %s: quantiles must come from raw samples in stats.go", fset.Position(sel.Pos()), sel.Sel.Name)
			}
			return true
		})
	}
	if checked == 0 {
		t.Fatal("no source files checked")
	}
}

func TestSelfTimeUnionsConcurrentChildren(t *testing.T) {
	tr := &tracer{spans: []span{
		{ID: 0, Parent: -1, Name: "day", Start: 0, End: 100},
		{ID: 1, Parent: 0, Name: "a", Start: 10, End: 50},
		{ID: 2, Parent: 0, Name: "b", Start: 30, End: 70},  // overlaps a
		{ID: 3, Parent: 0, Name: "c", Start: 80, End: 120}, // runs past the parent
		{ID: 4, Parent: 1, Name: "leaf", Start: 10, End: 20},
	}}
	self := tr.selfTimes()
	for id, want := range map[int]int64{0: 20, 1: 30, 2: 40, 3: 40, 4: 10} {
		if int64(self[id]) != want {
			t.Errorf("self time of span %d = %d, want %d", id, self[id], want)
		}
	}
}
