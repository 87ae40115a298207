// Package baseline supplies the single-day rows of the comparison models
// of the paper's evaluation (Section V-C):
//
//   - Baseline — Liu et al. 2018: per-aspect autoencoders over
//     coarse-grained, unweighted, normalized single-day activity counts in
//     four aspects (device, file, http, logon), no group features.
//   - Base-FF — the Baseline model upgraded with ACOBE's fine-grained
//     features (new-ops and upload file types), still single-day.
//   - 1-Day — the paper's single-day ablation of ACOBE: same aspects and
//     group embedding, but features are normalized occurrences instead of
//     windowed deviations.
//
// All three share ACOBE's autoencoder ensemble, aggregate and critic and
// differ from it only in their input rows, so New returns a core.Detector
// over single-day rows instead of compound deviation matrices.
//
// The original Baseline splits each day into 24 hourly time-frames; the
// paper notes the number of time-frames "contributes negligible
// performance difference for this dataset", and this implementation uses
// the same two work/off frames as ACOBE so every model shares one
// measurement table.
//
// The remaining ablations (No-Group, All-in-1) need no code here: they are
// core.Config variants (IncludeGroup=false, features.AllInOneAspect).
package baseline

import (
	"fmt"

	"acobe/internal/autoencoder"
	"acobe/internal/cert"
	"acobe/internal/core"
	"acobe/internal/features"
)

// Config parameterizes a single-day reconstruction model.
type Config struct {
	// Aspects are the behavioral aspects (one autoencoder each).
	Aspects []features.Aspect
	// IncludeGroup appends the group-average normalized features to each
	// vector (used by the 1-Day ACOBE ablation; off for Baseline/Base-FF).
	IncludeGroup bool
	// AEConfig builds the autoencoder configuration for an input width.
	// Defaults to autoencoder.FastConfig.
	AEConfig func(inputDim int) autoencoder.Config
	// N is the critic vote count.
	N int
	// Seed differentiates per-aspect model initialization.
	Seed uint64
}

// NewBaselineConfig returns the Liu et al. Baseline configuration.
func NewBaselineConfig() Config {
	return Config{Aspects: features.BaselineAspects(), N: 3, Seed: 11}
}

// NewBaseFFConfig returns Base-FF: the Baseline model with ACOBE's
// fine-grained features.
func NewBaseFFConfig() Config {
	return Config{Aspects: features.ACOBEAspects(), N: 3, Seed: 13}
}

// NewOneDayConfig returns the paper's 1-Day ablation of ACOBE: fine
// features and group embedding, single-day reconstruction.
func NewOneDayConfig() Config {
	return Config{Aspects: features.ACOBEAspects(), IncludeGroup: true, N: 3, Seed: 17}
}

// New builds an untrained single-day detector over the measurement table.
// group is the per-group average table (one row per group, with
// userGroup[u] selecting user u's row) and may be nil unless
// cfg.IncludeGroup is set. Every count is divided by its cell's maximum
// over the training span [trainFrom, trainTo] (clamped to the table), so
// the detector should be fitted on that span. It trains on every day
// (TrainStride 1).
func New(cfg Config, table, group *features.Table, userGroup []int, trainFrom, trainTo cert.Day) (*core.Detector, error) {
	rows, err := newRows(cfg, table, group, userGroup, trainFrom, trainTo)
	if err != nil {
		return nil, err
	}
	return core.NewRowDetector(core.Config{
		Aspects:     cfg.Aspects,
		AEConfig:    cfg.AEConfig,
		TrainStride: 1,
		N:           cfg.N,
		Seed:        cfg.Seed,
	}, table.Users(), rows)
}

// newRows builds one row source per configured aspect, all sharing the
// norms of the training span.
func newRows(cfg Config, table, group *features.Table, userGroup []int, trainFrom, trainTo cert.Day) ([]core.RowSource, error) {
	if len(cfg.Aspects) == 0 {
		return nil, fmt.Errorf("baseline: no aspects configured")
	}
	if cfg.IncludeGroup && group == nil {
		return nil, fmt.Errorf("baseline: IncludeGroup set but no group table given")
	}
	if !cfg.IncludeGroup {
		group = nil
	}
	if group != nil {
		if err := features.CheckMembership(table.Users(), len(group.Users()), userGroup); err != nil {
			return nil, fmt.Errorf("baseline: %w", err)
		}
	}
	start, end := table.Span()
	trainFrom, trainTo = max(trainFrom, start), min(trainTo, end)
	if trainTo < trainFrom {
		return nil, fmt.Errorf("baseline: empty training range")
	}
	norms := maxima(table, trainFrom, trainTo)
	var gnorms [][]float64
	if group != nil {
		gnorms = maxima(group, trainFrom, trainTo)
	}
	rows := make([]core.RowSource, len(cfg.Aspects))
	for i, aspect := range cfg.Aspects {
		r := &dayRows{table: table, group: group, userGroup: userGroup, first: start, last: end, norms: norms, gnorms: gnorms}
		for _, name := range aspect.Features {
			fi := table.FeatureIndex(name)
			if fi < 0 {
				return nil, fmt.Errorf("baseline: aspect %s feature %q missing from table", aspect.Name, name)
			}
			r.featIdx = append(r.featIdx, fi)
		}
		rows[i] = r
	}
	return rows, nil
}

// dayRows is one aspect's single-day row source: user u's normalized
// counts on day d, then (with a group table) those of u's group. It is
// read-only once built, so every aspect shares one set of norms and
// scores concurrently.
type dayRows struct {
	table     *features.Table
	group     *features.Table
	userGroup []int
	featIdx   []int
	// first and last are the table's span: a single-day row needs no
	// history.
	first, last cert.Day
	// norms[u][f*frames+frame] is the training-span maximum user u's
	// counts are divided by; gnorms is the same per group.
	norms, gnorms [][]float64
}

// Dim returns the row width.
func (r *dayRows) Dim() int {
	dim := len(r.featIdx) * r.table.Frames()
	if r.group != nil {
		dim *= 2
	}
	return dim
}

// FirstMatrixDay returns the table's first day.
func (r *dayRows) FirstMatrixDay() cert.Day { return r.first }

// LastMatrixDay returns the table's last day.
func (r *dayRows) LastMatrixDay() cert.Day { return r.last }

// BuildInto writes the normalized single-day row of user u on day d into
// dst: for each feature of the aspect, for each time-frame, the count over
// its norm, then the same for u's group when there is a group table.
func (r *dayRows) BuildInto(u int, d cert.Day, dst []float64) error {
	if d < r.FirstMatrixDay() || d > r.LastMatrixDay() {
		return fmt.Errorf("baseline: day %v outside table span %v..%v", d, r.FirstMatrixDay(), r.LastMatrixDay())
	}
	if len(dst) != r.Dim() {
		return fmt.Errorf("baseline: BuildInto dst has %d elements, want %d", len(dst), r.Dim())
	}
	pos := fill(dst, r.table, r.norms[u], u, r.featIdx, d)
	if r.group != nil {
		g := r.userGroup[u]
		fill(dst[pos:], r.group, r.gnorms[g], g, r.featIdx, d)
	}
	return nil
}

// fill writes row u of t on day d, feature by feature and frame by frame,
// each count divided by its norm, into dst and returns the count written.
func fill(dst []float64, t *features.Table, norms []float64, u int, featIdx []int, d cert.Day) int {
	frames := t.Frames()
	pos := 0
	for _, f := range featIdx {
		for frame := 0; frame < frames; frame++ {
			dst[pos] = t.At(u, f, frame, d) / norms[f*frames+frame]
			pos++
		}
	}
	return pos
}

// maxima scans [from, to] for every row's per-cell maximum, floored at 1:
// out[u][f*frames+frame].
func maxima(t *features.Table, from, to cert.Day) [][]float64 {
	frames := t.Frames()
	nf := len(t.Features())
	out := make([][]float64, len(t.Users()))
	for u := range out {
		out[u] = make([]float64, nf*frames)
		for f := 0; f < nf; f++ {
			for frame := 0; frame < frames; frame++ {
				maxv := 1.0
				for d := from; d <= to; d++ {
					if v := t.At(u, f, frame, d); v > maxv {
						maxv = v
					}
				}
				out[u][f*frames+frame] = maxv
			}
		}
	}
	return out
}
