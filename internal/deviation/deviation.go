// Package deviation implements the paper's compound behavioral deviation
// matrix (Section IV-A): per-feature z-score deviations against a sliding
// multi-day history, clamped to [-Δ, Δ], optionally scaled by TF-style
// weights, and assembled into matrices that stack an individual user's
// deviations with their group's deviations across multiple days and
// time-frames.
package deviation

import (
	"fmt"
	"math"

	"acobe/internal/cert"
	"acobe/internal/features"
)

// Config holds the deviation-matrix parameters.
type Config struct {
	// Window is ω, the sliding history length in days (paper: 30 for the
	// CERT evaluation, 14 for the enterprise case study). Deviations on
	// day d are measured against the ω-1 preceding days.
	Window int
	// MatrixDays is 𝒟, how many consecutive days one matrix spans.
	MatrixDays int
	// Delta is Δ, the deviation clamp (paper: 3).
	Delta float64
	// Epsilon is ε, the floor applied to the history's standard deviation
	// to avoid division by zero.
	Epsilon float64
	// Weighted applies the paper's TF-style feature weights
	// w = 1 / log2(max(std, 2)).
	Weighted bool
}

// DefaultConfig returns the paper's CERT-evaluation parameters. Epsilon
// is set to one count: since every feature is an activity count, flooring
// the history's standard deviation at a single event keeps one-off rare
// activities of normal users from saturating at ±Δ, while sustained
// multi-event changes still do.
func DefaultConfig() Config {
	return Config{Window: 30, MatrixDays: 14, Delta: 3, Epsilon: 1, Weighted: true}
}

// Validate reports configuration errors.
func (c Config) Validate() error {
	if c.Window < 2 {
		return fmt.Errorf("deviation: window must be ≥ 2, got %d", c.Window)
	}
	if c.MatrixDays < 1 {
		return fmt.Errorf("deviation: matrix days must be ≥ 1, got %d", c.MatrixDays)
	}
	if c.Delta <= 0 {
		return fmt.Errorf("deviation: delta must be positive, got %g", c.Delta)
	}
	if c.Epsilon <= 0 {
		return fmt.Errorf("deviation: epsilon must be positive, got %g", c.Epsilon)
	}
	return nil
}

// Sigma computes the paper's deviation σ_{f,t,d} for a single measurement m
// against its history h (the ω-1 preceding measurements), returning the
// clamped z-score and the history's floored standard deviation.
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

// Weight computes the paper's TF-style feature weight
// w = 1/log2(max(std, 2)) ∈ (0, 1]: chaotic features (large history std)
// are scaled down, consistent features keep full weight.
func Weight(std float64) float64 {
	base := std
	if base < 2 {
		base = 2
	}
	return 1 / math.Log2(base)
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

// Field holds precomputed (optionally weighted) deviations σ·w for every
// (user, feature, frame, day) of a measurement table, for days where a full
// history window exists.
type Field struct {
	cfg      Config
	table    *features.Table
	firstDay cert.Day // first day with a defined deviation
	endDay   cert.Day
	nf       int
	frames   int
	days     int // number of deviation days
	// capDays is the allocated day capacity of each sigma series (≥ days);
	// StreamField grows it geometrically when appending days online.
	capDays int
	sigma   []float64
}

// ComputeField derives the deviation field of a measurement table. The
// first Window-1 days of the table have no deviations (they only provide
// history).
func ComputeField(t *features.Table, cfg Config) (*Field, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	start, end := t.Span()
	firstDay := start + cert.Day(cfg.Window-1)
	if firstDay > end {
		return nil, fmt.Errorf("deviation: table span %v..%v shorter than window %d", start, end, cfg.Window)
	}
	f := &Field{
		cfg:      cfg,
		table:    t,
		firstDay: firstDay,
		endDay:   end,
		nf:       len(t.Features()),
		frames:   t.Frames(),
		days:     int(end-firstDay) + 1,
	}
	f.capDays = f.days
	users := len(t.Users())
	f.sigma = make([]float64, users*f.nf*f.frames*f.days)
	for u := 0; u < users; u++ {
		for feat := 0; feat < f.nf; feat++ {
			for frame := 0; frame < f.frames; frame++ {
				series := t.Series(u, feat, frame)
				f.computeSeries(u, feat, frame, series)
			}
		}
	}
	return f, nil
}

// computeSeries fills the deviation series for one (user, feature, frame)
// using running sums over the sliding window for O(days) total work.
func (f *Field) computeSeries(u, feat, frame int, series []float64) {
	w := f.cfg.Window
	out := f.seriesSlice(u, feat, frame)
	// history for day index i (relative to table start) is series[i-w+1 : i].
	var sum, sumSq float64
	for i := 0; i < w-1; i++ {
		sum += series[i]
		sumSq += series[i] * series[i]
	}
	hlen := float64(w - 1)
	for i := w - 1; i < len(series); i++ {
		mean := sum / hlen
		variance := sumSq/hlen - mean*mean
		if variance < 0 {
			variance = 0
		}
		std := math.Sqrt(variance)
		if std < f.cfg.Epsilon {
			std = f.cfg.Epsilon
		}
		delta := (series[i] - mean) / std
		if delta > f.cfg.Delta {
			delta = f.cfg.Delta
		} else if delta < -f.cfg.Delta {
			delta = -f.cfg.Delta
		}
		if f.cfg.Weighted {
			delta *= Weight(std)
		}
		out[i-(w-1)] = delta
		// Slide the window: drop series[i-w+1], add series[i].
		oldest := series[i-w+1]
		sum += series[i] - oldest
		sumSq += series[i]*series[i] - oldest*oldest
	}
}

// seriesOff is the storage offset of row u's (feat, frame) day-series.
func (f *Field) seriesOff(u, feat, frame int) int {
	return ((u*f.nf+feat)*f.frames + frame) * f.capDays
}

func (f *Field) seriesSlice(u, feat, frame int) []float64 {
	o := f.seriesOff(u, feat, frame)
	return f.sigma[o : o+f.days]
}

// reserve makes room for at least days deviation days per series. Growth
// doubles the capacity into freshly allocated storage and copies every
// slot of the old one — the days counted so far and any rows that
// row-partitioned streams already filled beyond them — so online appends
// stay amortized O(1) and the old storage is never written again: a
// frozen header taken before the growth keeps reading it.
func (f *Field) reserve(days int) {
	if days <= f.capDays {
		return
	}
	newCap := f.capDays * 2
	if newCap < days {
		newCap = days
	}
	if newCap < 8 {
		newCap = 8
	}
	series := len(f.table.Users()) * f.nf * f.frames
	grown := make([]float64, series*newCap)
	for s := 0; s < series; s++ {
		copy(grown[s*newCap:s*newCap+f.capDays], f.sigma[s*f.capDays:(s+1)*f.capDays])
	}
	f.capDays = newCap
	f.sigma = grown
}

// appendDay extends every series by one (zeroed) day.
func (f *Field) appendDay() {
	f.reserve(f.days + 1)
	f.days++
	f.endDay++
}

// NewEmptyField builds a field over table t holding zero deviation days,
// positioned exactly like a fresh StreamField: its first day will be
// t.Span() start + Window-1. It is the shared target of row-partitioned
// streams (NewStreamFieldInto): the owner Reserves room before the
// streams advance, ExtendTo's the day count once every row of the new
// days is filled, and hands readers Freeze'd headers. t only supplies the
// row/feature/frame shape.
func NewEmptyField(t *features.Table, cfg Config) (*Field, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	start, _ := t.Span()
	firstDay := start + cert.Day(cfg.Window-1)
	return &Field{
		cfg:      cfg,
		table:    t,
		firstDay: firstDay,
		endDay:   firstDay - 1,
		nf:       len(t.Features()),
		frames:   t.Frames(),
	}, nil
}

// Reserve makes room for every deviation day through d without moving
// EndDay. It must not run concurrently with a stream writing into the
// field: the owner calls it before handing the new days to the streams.
func (f *Field) Reserve(d cert.Day) { f.reserve(int(d-f.firstDay) + 1) }

// ExtendTo moves EndDay forward to d over days the streams have filled
// (days before FirstDay, which only prime the windows, are a no-op).
func (f *Field) ExtendTo(d cert.Day) {
	if d > f.endDay {
		f.Reserve(d)
		f.days, f.endDay = int(d-f.firstDay)+1, d
	}
}

// Freeze returns an immutable header over the field's current storage and
// day count. Later appends to f land beyond the header's day count or,
// after a capacity growth, in new storage, so nothing the header can
// reach is ever written again: readers use it with no lock while the
// field keeps growing behind it.
func (f *Field) Freeze() *Field {
	h := *f
	return &h
}

// FirstDay returns the first day with a defined deviation.
func (f *Field) FirstDay() cert.Day { return f.firstDay }

// EndDay returns the last covered day.
func (f *Field) EndDay() cert.Day { return f.endDay }

// Config returns the field's parameters.
func (f *Field) Config() Config { return f.cfg }

// Table returns the source measurement table.
func (f *Field) Table() *features.Table { return f.table }

// Sigma returns the (weighted) deviation of (user u, feature feat, frame)
// on day d. Days before FirstDay return 0.
func (f *Field) Sigma(u, feat, frame int, d cert.Day) float64 {
	if d < f.firstDay || d > f.endDay {
		return 0
	}
	return f.seriesSlice(u, feat, frame)[int(d-f.firstDay)]
}

// SigmaSeries returns the deviation day-series of (u, feat, frame) from
// FirstDay to EndDay. The slice aliases the field; do not modify.
func (f *Field) SigmaSeries(u, feat, frame int) []float64 {
	return f.seriesSlice(u, feat, frame)
}
