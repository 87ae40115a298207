package deviation

import "math"

// Sigma is the test oracle for the paper's deviation σ_{f,t,d}: the
// clamped z-score of a single measurement m against its history h (the
// ω-1 preceding measurements), from a two-pass mean and standard
// deviation rather than the running sums the field walks keep. It returns
// the history's floored standard deviation beside it.
func Sigma(m float64, history []float64, cfg Config) (sigma, std float64) {
	mean, s := meanStd(history)
	if s < cfg.Epsilon {
		s = cfg.Epsilon
	}
	delta := (m - mean) / s
	if delta > cfg.Delta {
		delta = cfg.Delta
	} else if delta < -cfg.Delta {
		delta = -cfg.Delta
	}
	return delta, s
}

func meanStd(xs []float64) (mean, std float64) {
	if len(xs) == 0 {
		return 0, 0
	}
	for _, x := range xs {
		mean += x
	}
	mean /= float64(len(xs))
	var ss float64
	for _, x := range xs {
		d := x - mean
		ss += d * d
	}
	return mean, math.Sqrt(ss / float64(len(xs)))
}
