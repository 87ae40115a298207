package deviation

import (
	"fmt"

	"acobe/internal/cert"
	"acobe/internal/features"
)

// StreamField maintains a deviation Field incrementally: it consumes the
// source measurement table one day at a time and appends that day's
// deviations in O(users·features·frames) — O(1) per cell — using one
// Accumulator per (user, feature, frame). After consuming days start..d it
// is bit-identical to ComputeField over a table spanning start..d (same
// running-sum operations in the same order; see
// TestStreamFieldMatchesComputeField), which is what lets the online
// serving layer answer ranked-list queries that match the batch pipeline
// byte for byte.
//
// Unlike ComputeField, which requires the table's span to already cover a
// full history window, a StreamField can be created over a table of any
// length and primes itself as days arrive. The table is expected to grow
// via features.Table.EnsureDay; call Advance after each appended day.
type StreamField struct {
	field *Field
	table *features.Table // source measurements (field.table unless rows is set)
	// rows, when set, maps the source table's row r to row rows[r] of a
	// field this stream shares with others (NewStreamFieldInto); nil
	// means the stream owns its field and rows map one to one.
	rows []int
	acc  []Accumulator
	hist []float64 // per-cell rings, Window-1 slots each
	next cert.Day  // first table day not yet consumed
}

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
		return nil, fmt.Errorf("deviation: stream table shape does not match the shared field's rows")
	}
	if start, _ := t.Span(); start+cert.Day(into.cfg.Window-1) != into.firstDay {
		return nil, fmt.Errorf("deviation: stream table and shared field start on different days")
	}
	return newStream(t, into, rows), nil
}

func newStream(t *features.Table, f *Field, rows []int) *StreamField {
	start, _ := t.Span()
	cells := len(t.Users()) * f.nf * f.frames
	return &StreamField{
		field: f,
		table: t,
		rows:  rows,
		acc:   make([]Accumulator, cells),
		hist:  make([]float64, cells*(f.cfg.Window-1)),
		next:  start,
	}
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

// days is how many deviation days this stream has emitted, derived from
// the days consumed (for an owning stream it equals the field's count).
func (s *StreamField) days() int {
	if s.next > s.field.firstDay {
		return int(s.next - s.field.firstDay)
	}
	return 0
}

// Advance consumes every table day from the last consumed day up to the
// table's current end (which may have grown via EnsureDay since the last
// call). Days whose history window is not yet full only prime the
// accumulators; later days each emit one deviation day — appended to an
// owned field, written into reserved room of a shared one.
func (s *StreamField) Advance() error {
	t, f := s.table, s.field
	start, end := t.Span()
	if s.next < start {
		return fmt.Errorf("deviation: stream field behind table start (%v < %v)", s.next, start)
	}
	users := len(t.Users())
	w1 := f.cfg.Window - 1
	for ; s.next <= end; s.next++ {
		d := s.next
		emit := d >= f.firstDay
		at := int(d - f.firstDay)
		if emit && s.rows == nil {
			f.appendDay()
		} else if emit && at >= f.capDays {
			return fmt.Errorf("deviation: day %v written into a shared field with no room reserved", d)
		}
		cell := 0
		for u := 0; u < users; u++ {
			o := f.seriesOff(s.row(u), 0, 0) + at
			for feat := 0; feat < f.nf; feat++ {
				for frame := 0; frame < f.frames; frame++ {
					m := t.At(u, feat, frame, d)
					sigma, ok := s.acc[cell].Push(f.cfg, s.hist[cell*w1:(cell+1)*w1], m)
					if ok != emit {
						return fmt.Errorf("deviation: stream field out of phase on day %v (cell %d)", d, cell)
					}
					if ok {
						f.sigma[o] = sigma
					}
					o += f.capDays
					cell++
				}
			}
		}
	}
	return nil
}
