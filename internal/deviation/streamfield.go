package deviation

import (
	"fmt"

	"acobe/internal/cert"
	"acobe/internal/features"
)

// StreamField maintains a deviation Field incrementally: it consumes the
// source measurement table one day at a time and appends that day's
// deviations in O(1) per (user, feature, frame) cell, keeping only each
// cell's running sum and sum of squares over its history window. After
// consuming days start..d it is bit-identical to ComputeField over a table
// spanning start..d — the same step over the same running sums in the
// same order (TestStreamFieldMatchesComputeField) — so the online serving
// layer ranks byte for byte as the batch pipeline does.
//
// The day that leaves a cell's window is read back from the source table,
// so the table must hold the Window-1 days before any day the stream
// advances over: a retention horizon that drops table days must stay at
// least Window-1 days behind the next day to advance. Those days are
// closed, and a closed day's measurements never change.
//
// A StreamField can be created over a table of any length: every cell is
// in the same phase, so the days before the field's FirstDay only fill
// the windows. Grow the table via features.Table.EnsureDay and call
// Advance after each appended day.
type StreamField struct {
	field *Field
	table *features.Table // source measurements (field.table unless rows is set)
	// rows, when set, maps the source table's row r to row rows[r] of a
	// field this stream shares with others (NewStreamFieldInto); nil
	// means the stream owns its field and rows map one to one.
	rows []int
	win  []window // per cell, in (user, feature, frame) order
	next cert.Day // first table day not yet consumed
}

// window is one cell's running sum and sum of squares over the history
// days before the stream's next day: Window-1 of them once primed.
type window struct{ sum, sumSq float64 }

// NewStreamField builds an empty streaming field over t. No table days are
// consumed yet; call Advance (or Advance after growing the table) to feed
// them in chronological order.
func NewStreamField(t *features.Table, cfg Config) (*StreamField, error) {
	f, err := NewEmptyField(t, cfg)
	if err != nil {
		return nil, err
	}
	return newStream(t, f, nil), nil
}

// NewStreamFieldInto builds a row-partitioned stream: it consumes t, the
// measurement table of a subset of into's rows, and writes row r's
// deviations straight into row rows[r] of into instead of a field of its
// own. It never moves into's day count or capacity — the owner Reserves
// before Advance and ExtendTo's after — so streams over disjoint rows may
// Advance concurrently, and every day they write lies beyond the day
// count of any header frozen earlier.
func NewStreamFieldInto(t *features.Table, into *Field, rows []int) (*StreamField, error) {
	if len(rows) != len(t.Users()) || len(t.Features()) != into.nf || t.Frames() != into.frames {
		return nil, fmt.Errorf("deviation: stream table of %d users × %d features × %d frames does not match %d rows of a shared field of %d features × %d frames",
			len(t.Users()), len(t.Features()), t.Frames(), len(rows), into.nf, into.frames)
	}
	if start, _ := t.Span(); start+cert.Day(into.cfg.Window-1) != into.firstDay {
		return nil, fmt.Errorf("deviation: stream table and shared field start on different days")
	}
	return newStream(t, into, rows), nil
}

func newStream(t *features.Table, f *Field, rows []int) *StreamField {
	start, _ := t.Span()
	cells := len(t.Users()) * f.nf * f.frames
	return &StreamField{field: f, table: t, rows: rows, win: make([]window, cells), next: start}
}

// Field returns the live deviation field. It grows as Advance consumes
// days; readers that must not observe the growth take a Freeze'd header.
func (s *StreamField) Field() *Field { return s.field }

// NextDay returns the first table day not yet consumed.
func (s *StreamField) NextDay() cert.Day { return s.next }

// row maps a source-table row to its row in the field.
func (s *StreamField) row(r int) int {
	if s.rows != nil {
		return s.rows[r]
	}
	return r
}

// Advance consumes every table day from the last consumed day up to the
// table's current end (which may have grown via EnsureDay since the last
// call). Days before the field's FirstDay only fill the windows; later
// days each emit one deviation day — appended to an owned field, written
// into reserved room of a shared one — and slide every window past the
// day that leaves it.
func (s *StreamField) Advance() error {
	t, f := s.table, s.field
	start, end := t.Span()
	if s.next < start {
		return fmt.Errorf("deviation: stream field behind table start (%v < %v)", s.next, start)
	}
	users := len(t.Users())
	w1 := f.cfg.Window - 1
	hlen := float64(w1)
	for ; s.next <= end; s.next++ {
		d := s.next
		at, i := int(d-f.firstDay), int(d-start) // at < 0 while priming
		if at >= 0 && s.rows == nil {
			f.appendDay()
		} else if at >= f.capDays {
			return fmt.Errorf("deviation: day %v written into a shared field with no room reserved", d)
		}
		cell := 0
		for u := 0; u < users; u++ {
			o := f.seriesOff(s.row(u), 0, 0) + at
			for feat := 0; feat < f.nf; feat++ {
				for frame := 0; frame < f.frames; frame++ {
					series := t.Series(u, feat, frame)
					m, w := series[i], &s.win[cell]
					if at >= 0 {
						f.sigma[o] = step(&f.cfg, w.sum, w.sumSq, hlen, m)
						oldest := series[i-w1]
						w.sum += m - oldest
						w.sumSq += m*m - oldest*oldest
					} else {
						w.sum += m
						w.sumSq += m * m
					}
					o += f.capDays
					cell++
				}
			}
		}
	}
	return nil
}
