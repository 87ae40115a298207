// Package features turns raw audit-log event streams into the per-user,
// per-feature, per-time-frame, per-day numeric measurements m_{f,t,d} that
// ACOBE's compound behavioral deviation matrices are derived from. It
// implements both the paper's fine-grained CERT feature set (device f1-f2,
// file f1-f7, HTTP f1-f7, including the "new-op" first-seen features) and
// the coarse single-activity-count features of the Liu et al. baseline.
package features

import (
	"fmt"

	"acobe/internal/cert"
)

// Table is a dense store of measurements indexed by (user, feature,
// time-frame, day). Values default to zero; days outside [Start, End] are
// rejected.
type Table struct {
	users    []string
	features []string
	frames   int
	start    cert.Day
	end      cert.Day

	// capDays is the allocated day capacity of every series; it is ≥
	// Days() so that EnsureDay can extend the span without re-striding the
	// backing array on every appended day.
	capDays int

	userIdx    map[string]int
	featureIdx map[string]int

	// data is laid out [user][feature][frame][day] with day fastest, so a
	// (user, feature, frame) day-series is one contiguous slice (strided
	// by capDays).
	data []float64
}

// NewTable allocates a zeroed table over the given users, features, number
// of per-day time-frames, and inclusive day span.
func NewTable(users, features []string, frames int, start, end cert.Day) (*Table, error) {
	if len(users) == 0 || len(features) == 0 {
		return nil, fmt.Errorf("features: table needs users and features (%d, %d)", len(users), len(features))
	}
	if frames <= 0 {
		return nil, fmt.Errorf("features: frames must be positive, got %d", frames)
	}
	if end < start {
		return nil, fmt.Errorf("features: empty day span [%v, %v]", start, end)
	}
	t := &Table{
		users:      append([]string(nil), users...),
		features:   append([]string(nil), features...),
		frames:     frames,
		start:      start,
		end:        end,
		userIdx:    make(map[string]int, len(users)),
		featureIdx: make(map[string]int, len(features)),
	}
	for i, u := range t.users {
		if _, dup := t.userIdx[u]; dup {
			return nil, fmt.Errorf("features: duplicate user %q", u)
		}
		t.userIdx[u] = i
	}
	for i, f := range t.features {
		if _, dup := t.featureIdx[f]; dup {
			return nil, fmt.Errorf("features: duplicate feature %q", f)
		}
		t.featureIdx[f] = i
	}
	days := int(end-start) + 1
	t.capDays = days
	t.data = make([]float64, len(users)*len(features)*frames*days)
	return t, nil
}

// Days returns the number of days covered.
func (t *Table) Days() int { return int(t.end-t.start) + 1 }

// Span returns the inclusive day range.
func (t *Table) Span() (cert.Day, cert.Day) { return t.start, t.end }

// Users returns the user IDs in index order.
func (t *Table) Users() []string { return t.users }

// Features returns the feature names in index order.
func (t *Table) Features() []string { return t.features }

// Frames returns the number of per-day time-frames.
func (t *Table) Frames() int { return t.frames }

// UserIndex returns the index of user id, or -1.
func (t *Table) UserIndex(id string) int {
	if i, ok := t.userIdx[id]; ok {
		return i
	}
	return -1
}

// FeatureIndex returns the index of the feature, or -1.
func (t *Table) FeatureIndex(name string) int {
	if i, ok := t.featureIdx[name]; ok {
		return i
	}
	return -1
}

// offset computes the flat index of (u, f, frame, day-start).
func (t *Table) offset(u, f, frame int, d cert.Day) int {
	return ((u*len(t.features)+f)*t.frames+frame)*t.capDays + int(d-t.start)
}

// EnsureDay extends the table's span so that day d is in range, keeping
// existing measurements and zero-filling the new days. Growth doubles the
// allocated day capacity (amortized O(1) per appended day), which is what
// lets the online ingestion path extend one table day-by-day for months
// without quadratic copying. Days before the current start are rejected —
// the span only grows forward.
func (t *Table) EnsureDay(d cert.Day) error {
	if d < t.start {
		return fmt.Errorf("features: EnsureDay %v before table start %v", d, t.start)
	}
	if d <= t.end {
		return nil
	}
	need := int(d-t.start) + 1
	if need > t.capDays {
		newCap := t.capDays * 2
		if newCap < need {
			newCap = need
		}
		series := len(t.users) * len(t.features) * t.frames
		grown := make([]float64, series*newCap)
		old := t.Days()
		for s := 0; s < series; s++ {
			copy(grown[s*newCap:s*newCap+old], t.data[s*t.capDays:s*t.capDays+old])
		}
		t.capDays = newCap
		t.data = grown
	}
	t.end = d
	return nil
}

// InSpan reports whether day d lies inside the table.
func (t *Table) InSpan(d cert.Day) bool { return d >= t.start && d <= t.end }

// Add accumulates v into the cell. Out-of-span days are ignored so callers
// can stream full datasets into tables covering a sub-range.
func (t *Table) Add(u, f, frame int, d cert.Day, v float64) {
	if !t.InSpan(d) {
		return
	}
	t.data[t.offset(u, f, frame, d)] += v
}

// AddDay accumulates one day's dense [user][feature][frame] block of
// measurements (an open-day accumulator's layout) into day d's cells.
// Like Add, an out-of-span day is ignored.
func (t *Table) AddDay(d cert.Day, cells []float64) {
	if !t.InSpan(d) {
		return
	}
	o := int(d - t.start)
	for s, v := range cells {
		if v != 0 {
			t.data[s*t.capDays+o] += v
		}
	}
}

// At returns the cell value.
func (t *Table) At(u, f, frame int, d cert.Day) float64 {
	if !t.InSpan(d) {
		return 0
	}
	return t.data[t.offset(u, f, frame, d)]
}

// Series returns the contiguous day-series of (u, f, frame) over the whole
// span. The returned slice aliases the table; callers must not modify it,
// and a later EnsureDay growth may move the backing array, so do not hold
// the slice across span extensions.
func (t *Table) Series(u, f, frame int) []float64 {
	o := t.offset(u, f, frame, t.start)
	return t.data[o : o+t.Days() : o+t.Days()]
}

// GroupTable builds a table whose "users" are groups: each cell is the
// mean of the corresponding cells across the group's members.
// membership[u] names the group of user u and must index into groupNames;
// -1 excludes a user from every group.
func (t *Table) GroupTable(groupNames []string, membership []int) (*Table, error) {
	if len(membership) != len(t.users) {
		return nil, fmt.Errorf("features: membership has %d entries for %d users", len(membership), len(t.users))
	}
	g, err := NewTable(groupNames, t.features, t.frames, t.start, t.end)
	if err != nil {
		return nil, err
	}
	sizes := make([]int, len(groupNames))
	for u, grp := range membership {
		if grp < 0 {
			continue
		}
		if grp >= len(groupNames) {
			return nil, fmt.Errorf("features: user %d in group %d, only %d groups", u, grp, len(groupNames))
		}
		sizes[grp]++
		for f := range t.features {
			for frame := 0; frame < t.frames; frame++ {
				src := t.Series(u, f, frame)
				dst := g.Series(grp, f, frame)
				for i, v := range src {
					dst[i] += v
				}
			}
		}
	}
	for grp, size := range sizes {
		if size == 0 {
			return nil, fmt.Errorf("features: group %q has no members", groupNames[grp])
		}
		inv := 1 / float64(size)
		for f := range t.features {
			for frame := 0; frame < t.frames; frame++ {
				dst := g.Series(grp, f, frame)
				for i := range dst {
					dst[i] *= inv
				}
			}
		}
	}
	return g, nil
}
