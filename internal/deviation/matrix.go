package deviation

import (
	"fmt"

	"acobe/internal/cert"
	"acobe/internal/features"
)

// Builder assembles compound matrices for one aspect from an individual
// deviation field and an optional group field whose "users" are groups
// (e.g. the per-department averages). A nil group field reproduces the
// paper's "No-Group" ablation.
type Builder struct {
	ind       *Field
	group     *Field
	userGroup []int
	featIdx   []int
	gFeatIdx  []int
}

// NewBuilder resolves the aspect's features against the fields' tables.
// ind and group must share the same day span and configuration. group may
// be nil (No-Group ablation); otherwise userGroup[u] is the group-table
// row embedded into user u's matrices, one entry per user.
func NewBuilder(ind, group *Field, userGroup []int, aspect features.Aspect) (*Builder, error) {
	b := &Builder{ind: ind, group: group}
	for _, name := range aspect.Features {
		i := ind.Table().FeatureIndex(name)
		if i < 0 {
			return nil, fmt.Errorf("deviation: aspect %s feature %q missing from individual table", aspect.Name, name)
		}
		b.featIdx = append(b.featIdx, i)
	}
	if group != nil {
		if group.FirstDay() != ind.FirstDay() || group.EndDay() != ind.EndDay() {
			return nil, fmt.Errorf("deviation: group field span %v..%v differs from individual %v..%v",
				group.FirstDay(), group.EndDay(), ind.FirstDay(), ind.EndDay())
		}
		for _, name := range aspect.Features {
			i := group.Table().FeatureIndex(name)
			if i < 0 {
				return nil, fmt.Errorf("deviation: aspect %s feature %q missing from group table", aspect.Name, name)
			}
			b.gFeatIdx = append(b.gFeatIdx, i)
		}
		if err := features.CheckMembership(ind.Table().Users(), len(group.Table().Users()), userGroup); err != nil {
			return nil, fmt.Errorf("deviation: %w", err)
		}
		b.userGroup = userGroup
	}
	return b, nil
}

// Dim returns the flattened matrix width.
func (b *Builder) Dim() int {
	components := 1
	if b.group != nil {
		components = 2
	}
	return components * len(b.featIdx) * b.ind.table.Frames() * b.ind.cfg.MatrixDays
}

// FirstMatrixDay returns the earliest day for which a full matrix exists
// (needs MatrixDays of deviations, which in turn need a history window).
func (b *Builder) FirstMatrixDay() cert.Day {
	return b.ind.FirstDay() + cert.Day(b.ind.cfg.MatrixDays-1)
}

// LastMatrixDay returns the latest day with a full matrix.
func (b *Builder) LastMatrixDay() cert.Day { return b.ind.EndDay() }

// BuildInto assembles the compound matrix of user index u ending on day d
// into dst, which must have length Dim(): one flattened compound behavioral
// deviation matrix, ready for an autoencoder, its values transformed from
// [-Δ, Δ] to [0, 1] (Section V: "we flatten the matrices into vectors, and
// transform the deviations from close-interval [-Δ,Δ] to [0,1]").
//
// Layout (day-fastest): for each component (individual, then group when
// present), for each feature of the aspect, for each time-frame, the
// MatrixDays consecutive days ending at d. Callers filling many rows
// (training sets, scoring batches) write straight into preallocated
// nn.Matrix rows, so nothing is allocated per matrix.
func (b *Builder) BuildInto(u int, d cert.Day, dst []float64) error {
	if d < b.FirstMatrixDay() || d > b.LastMatrixDay() {
		return fmt.Errorf("deviation: day %v outside matrix range %v..%v",
			d, b.FirstMatrixDay(), b.LastMatrixDay())
	}
	if len(dst) != b.Dim() {
		return fmt.Errorf("deviation: BuildInto dst has %d elements, want %d", len(dst), b.Dim())
	}
	cfg := b.ind.cfg
	frames := b.ind.table.Frames()
	scale := 1 / (2 * cfg.Delta)

	pos := 0
	fillComponent := func(f *Field, userIdx int, featIdx []int) {
		dayOff := int(d - f.FirstDay())
		for _, feat := range featIdx {
			for frame := 0; frame < frames; frame++ {
				series := f.seriesSlice(userIdx, feat, frame)
				for i := cfg.MatrixDays - 1; i >= 0; i-- {
					dst[pos] = (series[dayOff-i] + cfg.Delta) * scale
					pos++
				}
			}
		}
	}
	fillComponent(b.ind, u, b.featIdx)
	if b.group != nil {
		fillComponent(b.group, b.userGroup[u], b.gFeatIdx)
	}
	return nil
}
