package deviation

import "math"

// Accumulator is the streaming form of computeSeries: it advances one
// (user, feature, frame) cell's sliding deviation window by one day in
// O(1) using the same running sums the batch path uses. Feeding every day
// of a series through Push yields deviations bit-identical to
// ComputeField's — same operations in the same order, so online serving
// can extend a deviation field day by day without ever rebuilding it (the
// parity is asserted by TestAccumulatorMatchesComputeField).
//
// The caller owns the ring storage: hist must be the same len(Window-1)
// slice on every Push, which lets a serving layer pack millions of cells
// into one flat backing array instead of allocating a slice per cell. The
// Accumulator itself is three words and may live in a flat array too.
type Accumulator struct {
	sum   float64
	sumSq float64
	n     int
}

// Push consumes day-measurement m. The first Window-1 pushes only fill the
// history and report ok=false; every later push returns the (clamped,
// optionally weighted) deviation of m against the preceding Window-1 days
// and slides the window forward. hist must have length cfg.Window-1 and be
// dedicated to this accumulator.
func (a *Accumulator) Push(cfg Config, hist []float64, m float64) (sigma float64, ok bool) {
	if a.n < len(hist) {
		hist[a.n] = m
		a.sum += m
		a.sumSq += m * m
		a.n++
		return 0, false
	}
	hlen := float64(len(hist))
	mean := a.sum / hlen
	variance := a.sumSq/hlen - mean*mean
	if variance < 0 {
		variance = 0
	}
	std := math.Sqrt(variance)
	if std < cfg.Epsilon {
		std = cfg.Epsilon
	}
	delta := (m - mean) / std
	if delta > cfg.Delta {
		delta = cfg.Delta
	} else if delta < -cfg.Delta {
		delta = -cfg.Delta
	}
	if cfg.Weighted {
		delta *= Weight(std)
	}
	// Slide the window: drop the oldest retained day, add m. The ring slot
	// of the oldest day is n mod (Window-1), exactly the day that fell out
	// of the history.
	slot := a.n % len(hist)
	oldest := hist[slot]
	a.sum += m - oldest
	a.sumSq += m*m - oldest*oldest
	hist[slot] = m
	a.n++
	return delta, true
}

// Primed reports whether the history window is full, i.e. whether the next
// Push will produce a deviation.
func (a *Accumulator) Primed(cfg Config) bool { return a.n >= cfg.Window-1 }
