package deviation

import (
	"fmt"
	"io"

	"acobe/internal/cert"
	"acobe/internal/persist"
)

const (
	streamFieldMagic   = "ACSF"
	streamFieldVersion = 1
)

// SaveState writes everything a StreamField needs to resume exactly where
// it stopped: per-cell sliding-window accumulators, the history rings, and
// the deviation series emitted so far. Restoring into a fresh StreamField
// over an identically restored table and then continuing with Advance is
// bit-identical to never having stopped — the accumulators carry the same
// running sums the uninterrupted run would hold. A row-partitioned stream
// writes its own rows of the shared field, so the bytes are those of an
// owning stream over the same table.
func (s *StreamField) SaveState(w io.Writer) error {
	pw := persist.NewWriter(w)
	pw.Magic(streamFieldMagic, streamFieldVersion)
	cells := len(s.acc)
	w1 := s.field.cfg.Window - 1
	pw.Int(cells)
	pw.Int(w1)
	days := s.days()
	pw.I64(int64(s.next))
	pw.I64(int64(s.field.firstDay) + int64(days) - 1)
	pw.Int(days)
	for i := range s.acc {
		pw.F64(s.acc[i].sum)
		pw.F64(s.acc[i].sumSq)
		pw.Int(s.acc[i].n)
	}
	pw.F64s(s.hist)
	for c := 0; c < cells; c++ {
		o := s.cellOff(c)
		pw.F64s(s.field.sigma[o : o+days])
	}
	return pw.Err()
}

// cellOff is the field-storage offset of this stream's cell c.
func (s *StreamField) cellOff(c int) int {
	per := s.field.nf * s.field.frames
	return (s.row(c/per)*per + c%per) * s.field.capDays
}

// LoadState restores state written by SaveState into a freshly constructed
// StreamField whose table has already been restored to the saved span. The
// cell count and window must match; the saved day bookkeeping must be
// internally consistent with the field's first deviation day. The owner of
// a shared field Reserves through the saved day first.
func (s *StreamField) LoadState(r io.Reader) error {
	pr := persist.NewReader(r)
	if v := pr.Magic(streamFieldMagic); pr.Err() == nil && v != streamFieldVersion {
		return fmt.Errorf("deviation: stream field state version %d unsupported", v)
	}
	cells := pr.Int()
	w1 := pr.Int()
	next := cert.Day(pr.I64())
	endDay := cert.Day(pr.I64())
	days := pr.Int()
	if err := pr.Err(); err != nil {
		return fmt.Errorf("deviation: load stream field state: %w", err)
	}
	if cells != len(s.acc) || w1 != s.field.cfg.Window-1 {
		return fmt.Errorf("deviation: stream field state shape (%d cells, window %d) does not match (%d, %d)",
			cells, w1+1, len(s.acc), s.field.cfg.Window)
	}
	start, end := s.table.Span()
	if next < start || next > end+1 {
		return fmt.Errorf("deviation: stream field state next day %v outside table span %v..%v", next, start, end)
	}
	wantDays := 0
	if next > s.field.firstDay {
		wantDays = int(next - s.field.firstDay)
	}
	if days != wantDays || endDay != s.field.firstDay+cert.Day(days)-1 {
		return fmt.Errorf("deviation: stream field state day bookkeeping inconsistent (next %v, end %v, days %d)",
			next, endDay, days)
	}
	if s.rows == nil {
		s.field.ExtendTo(endDay)
	} else if days > s.field.capDays {
		// As in Advance: a row-partitioned stream never moves the shared
		// field's capacity, so sibling streams may load side by side. The
		// owner reserves before and extends once every stream loaded.
		return fmt.Errorf("deviation: stream field state through day %v loaded into a shared field with no room reserved", endDay)
	}
	s.next = next
	for i := range s.acc {
		s.acc[i].sum = pr.F64()
		s.acc[i].sumSq = pr.F64()
		s.acc[i].n = pr.Int()
	}
	pr.ReadF64sInto(s.hist)
	for c := 0; c < cells; c++ {
		o := s.cellOff(c)
		pr.ReadF64sInto(s.field.sigma[o : o+days])
	}
	if err := pr.Err(); err != nil {
		return fmt.Errorf("deviation: load stream field state: %w", err)
	}
	for i := range s.acc {
		if s.acc[i].n < 0 {
			return fmt.Errorf("deviation: stream field state has negative push count")
		}
	}
	return nil
}
