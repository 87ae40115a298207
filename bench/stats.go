package main

import (
	"math"
	"sort"
)

// Every percentile this harness reports is computed here, from raw
// samples the harness itself recorded. obs histograms are log2-bucketed
// (a quantile read from one is a bucket edge, up to 2× off), so they are
// used for exact counts and sums only — stats_test.go enforces that.

// sorted returns an ascending copy of xs.
func sorted(xs []float64) []float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s
}

// quantile returns the q-quantile (0 ≤ q ≤ 1) of ascending samples by
// linear interpolation between closest ranks. NaN when there are none.
func quantile(asc []float64, q float64) float64 {
	if len(asc) == 0 {
		return math.NaN()
	}
	pos := q * float64(len(asc)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	return asc[lo] + (asc[hi]-asc[lo])*(pos-float64(lo))
}

// median returns the median of xs (any order).
func median(xs []float64) float64 { return quantile(sorted(xs), 0.5) }

// quartiles returns Q1, Q2, Q3 exactly as Python's
// statistics.quantiles(xs, n=4) does (the "exclusive" method), because
// that is how the acceptance driver measures run-to-run spread.
func quartiles(xs []float64) (q1, q2, q3 float64) {
	asc := sorted(xs)
	n := len(asc)
	if n < 2 {
		v := quantile(asc, 0.5)
		return v, v, v
	}
	cut := func(i int) float64 {
		j := i * (n + 1) / 4
		j = min(max(j, 1), n-1)
		delta := float64(i*(n+1) - j*4)
		return (asc[j-1]*(4-delta) + asc[j]*delta) / 4
	}
	return cut(1), cut(2), cut(3)
}

// spread is the interquartile distance as a share of the median.
func spread(xs []float64) float64 {
	q1, q2, q3 := quartiles(xs)
	if q2 == 0 {
		return math.NaN()
	}
	return (q3 - q1) / math.Abs(q2)
}

// percentileLadder lists the percentiles a tail metric may fall back to.
var percentileLadder = []float64{0.50, 0.75, 0.90, 0.95, 0.99, 0.999}

// allowedPercentile returns the highest ladder percentile, no higher
// than want, that still has at least ten samples beyond it among n. With
// fewer than 20 samples even the median does not qualify and 0.50 is
// returned as the floor.
func allowedPercentile(n int, want float64) float64 {
	best := percentileLadder[0]
	for _, p := range percentileLadder {
		if p > want+1e-12 {
			break
		}
		if float64(n)*(1-p) >= 10-1e-9 {
			best = p
		}
	}
	return best
}

// tail reports the want-percentile of xs, lowered automatically to the
// highest percentile with at least ten samples beyond it. The sample
// count of a run follows from the frozen sizes and -seconds alone, so the
// percentile chosen does not flip between runs of one configuration. It
// returns the value and the percentile actually used.
func tail(xs []float64, want float64) (value, used float64) {
	used = allowedPercentile(len(xs), want)
	return quantile(sorted(xs), used), used
}

func sum(xs []float64) float64 {
	t := 0.0
	for _, x := range xs {
		t += x
	}
	return t
}
