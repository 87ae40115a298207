package features

import (
	"bytes"
	"cmp"
	"fmt"
	"io"
	"slices"
	"time"

	"acobe/internal/cert"
	"acobe/internal/persist"
)

// Open-day state is what an extractor holds of a day whose events are
// still arriving: every measurement of the paper is a count per (user,
// feature, time-frame, day) or a count of pairs "never seen before day d",
// so a day's events fold into an accumulator one at a time, in any order,
// and the raw events are never kept. An accumulator is a dense
// [user][feature][frame] block of counts plus the day's first-seen
// candidates — the (user, kind, key) triples whose newness can only be
// judged against the history of every earlier day, which is complete when
// the day closes. Both extractors (this package's and internal/enterprise)
// run on it; what they fold in and how they resolve a candidate is theirs.

// Stamp orders the events of one day that named the same key: the
// enterprise features attribute a key to the frame of its earliest event.
// The frame rides along because an event's hour is read in its own time
// zone, which the instant alone does not carry.
type Stamp struct {
	Sec   int64
	Nsec  int32
	Frame int8
}

// StampOf is t's stamp in the given frame.
func StampOf(t time.Time, frame int) Stamp {
	return Stamp{Sec: t.Unix(), Nsec: int32(t.Nanosecond()), Frame: int8(frame)}
}

// Before orders stamps by instant, then frame, so the earliest of a set is
// the same whatever order the set arrived in.
func (s Stamp) Before(o Stamp) bool {
	if s.Sec != o.Sec {
		return s.Sec < o.Sec
	}
	if s.Nsec != o.Nsec {
		return s.Nsec < o.Nsec
	}
	return s.Frame < o.Frame
}

// Candidate is one (user, kind, key) a day's events named.
type Candidate struct {
	// ID is the user index (4 bytes, big-endian) and the kind (1 byte),
	// then the key: one string, so the day's index is a string-keyed map
	// and a lookup from a scratch buffer converts nothing.
	ID string
	// First is the earliest event that named it.
	First Stamp
	// N counts the events that named it, per frame and per outcome (an
	// extractor with one outcome uses column 0).
	N [cert.NumTimeframes][2]uint32
}

// candPrefix is the length of the (user, kind) head of a Candidate.ID.
const candPrefix = 5

// CandID starts a candidate ID in buf's storage; the caller appends the
// key bytes.
func CandID(buf []byte, u, kind int) []byte {
	return append(buf[:0], byte(u>>24), byte(u>>16), byte(u>>8), byte(u), byte(kind))
}

// Split takes the candidate's ID apart. The key shares the ID's storage:
// clone it to keep it past the day.
func (c *Candidate) Split() (u, kind int, key string) {
	id := c.ID
	return int(id[0])<<24 | int(id[1])<<16 | int(id[2])<<8 | int(id[3]), int(id[4]), id[candPrefix:]
}

// DayAcc is one open day's accumulator.
type DayAcc struct {
	// Events counts the events folded in.
	Events int
	// Cells is the dense [user][feature][frame] block.
	Cells []float64
	// Cands holds the candidates in arrival order; index finds one by ID.
	Cands []Candidate
	index map[string]int32
}

// Candidate returns the entry for id (built with CandID), adding it on
// first sight: the only allocation is the ID's string, once per distinct
// key per day.
func (a *DayAcc) Candidate(id []byte) *Candidate {
	i, ok := a.index[string(id)]
	if !ok {
		i = int32(len(a.Cands))
		s := string(id)
		a.index[s] = i
		a.Cands = append(a.Cands, Candidate{ID: s})
	}
	return &a.Cands[i]
}

// OpenDays is an extractor's set of open-day accumulators.
type OpenDays struct {
	users, feats, frames, kinds int

	days map[cert.Day]*DayAcc
	// cur is the accumulator of the day last asked for: consecutive events
	// nearly always share a day.
	curDay cert.Day
	cur    *DayAcc
	// free is the block of the day last closed, zeroed, for the next day
	// opened. Only the block is kept: it has one size, where a burst day's
	// candidate index would stay resident at the burst's size.
	free []float64
}

// NewOpenDays sizes accumulators for t's shape and the extractor's number
// of candidate kinds.
func NewOpenDays(t *Table, kinds int) *OpenDays {
	return &OpenDays{
		users: len(t.users), feats: len(t.features), frames: t.frames, kinds: kinds,
		days: make(map[cert.Day]*DayAcc),
	}
}

// Day returns d's accumulator, opening it on first use.
func (o *OpenDays) Day(d cert.Day) *DayAcc {
	if o.cur != nil && o.curDay == d {
		return o.cur
	}
	a := o.days[d]
	if a == nil {
		a = &DayAcc{Cells: o.free, index: make(map[string]int32)}
		if o.free = nil; a.Cells == nil {
			a.Cells = make([]float64, o.users*o.feats*o.frames)
		}
		o.days[d] = a
	}
	o.curDay, o.cur = d, a
	return a
}

// Take removes d's accumulator from the open set and returns it (nil when
// d saw no event). The caller hands it back with Release when done.
func (o *OpenDays) Take(d cert.Day) *DayAcc {
	a := o.days[d]
	delete(o.days, d)
	if o.cur == a {
		o.cur = nil
	}
	return a
}

// Release keeps a closed day's block for reuse.
func (o *OpenDays) Release(a *DayAcc) {
	clear(a.Cells)
	o.free = a.Cells
}

// AnyBefore reports whether a day earlier than d is still open.
func (o *OpenDays) AnyBefore(d cert.Day) bool {
	for od := range o.days {
		if od < d {
			return true
		}
	}
	return false
}

// Events returns the number of events folded into each open day.
func (o *OpenDays) Events() map[cert.Day]int {
	out := make(map[cert.Day]int, len(o.days))
	for d, a := range o.days {
		out[d] = a.Events
	}
	return out
}

const (
	openDayMagic   = "ACOD"
	openDayVersion = 1
)

// Save writes d's accumulator: shape, event count, block, and the
// candidates sorted by key, so equal accumulators give equal bytes however
// their events arrived.
func (o *OpenDays) Save(w io.Writer, d cert.Day) error {
	a := o.days[d]
	if a == nil {
		return fmt.Errorf("features: day %v is not open", d)
	}
	pw := persist.NewWriter(w)
	pw.Magic(openDayMagic, openDayVersion)
	pw.Int(o.users)
	pw.Int(o.feats)
	pw.Int(o.frames)
	pw.Int(o.kinds)
	pw.Int(a.Events)
	pw.F64s(a.Cells)
	cands := slices.Clone(a.Cands)
	slices.SortFunc(cands, func(x, y Candidate) int { return cmp.Compare(x.ID, y.ID) })
	pw.U64(uint64(len(cands)))
	for i := range cands {
		c := &cands[i]
		pw.String(c.ID)
		pw.I64(c.First.Sec)
		pw.U32(uint32(c.First.Nsec))
		pw.U8(uint8(c.First.Frame))
		for _, n := range c.N {
			pw.U32(n[0])
			pw.U32(n[1])
		}
	}
	return pw.Err()
}

// Load opens day d from a blob Save wrote for an extractor of the same
// shape. The blob is outside input: anything Save could not have written —
// another shape, a user or kind out of range, candidates out of order or
// repeated, bytes left over — is refused, and nothing is opened.
func (o *OpenDays) Load(blob []byte, d cert.Day) error {
	if o.days[d] != nil {
		return fmt.Errorf("features: day %v is already open", d)
	}
	in := bytes.NewReader(blob)
	pr := persist.NewReader(in)
	if v := pr.Magic(openDayMagic); pr.Err() == nil && v != openDayVersion {
		return fmt.Errorf("features: open-day state version %d unsupported", v)
	}
	users, feats, frames, kinds := pr.Int(), pr.Int(), pr.Int(), pr.Int()
	events := pr.Int()
	if err := pr.Err(); err != nil {
		return fmt.Errorf("features: load open-day state: %w", err)
	}
	if users != o.users || feats != o.feats || frames != o.frames || kinds != o.kinds {
		return fmt.Errorf("features: open-day state shape (%d users, %d features, %d frames, %d kinds) does not match (%d, %d, %d, %d)",
			users, feats, frames, kinds, o.users, o.feats, o.frames, o.kinds)
	}
	if events < 0 {
		return fmt.Errorf("%w: open-day state counts %d events", persist.ErrCorrupt, events)
	}
	a := &DayAcc{Events: events, Cells: pr.F64s(o.users * o.feats * o.frames), index: make(map[string]int32)}
	n := pr.Len()
	for i := 0; i < n && pr.Err() == nil; i++ {
		c := Candidate{ID: pr.String()}
		c.First = Stamp{Sec: pr.I64(), Nsec: int32(pr.U32()), Frame: int8(pr.U8())}
		for f := range c.N {
			c.N[f] = [2]uint32{pr.U32(), pr.U32()}
		}
		if pr.Err() != nil {
			break
		}
		if len(c.ID) < candPrefix {
			return fmt.Errorf("%w: open-day candidate ID of %d bytes", persist.ErrCorrupt, len(c.ID))
		}
		if u, kind, _ := c.Split(); u >= o.users || kind >= o.kinds || c.First.Frame < 0 || int(c.First.Frame) >= o.frames {
			return fmt.Errorf("%w: open-day candidate (user %d, kind %d, frame %d) out of range", persist.ErrCorrupt, u, kind, c.First.Frame)
		}
		if i > 0 && c.ID <= a.Cands[i-1].ID {
			return fmt.Errorf("%w: open-day candidates out of order", persist.ErrCorrupt)
		}
		a.index[c.ID] = int32(i)
		a.Cands = append(a.Cands, c)
	}
	if err := pr.Err(); err != nil {
		return fmt.Errorf("features: load open-day state: %w", err)
	}
	if in.Len() != 0 {
		return fmt.Errorf("%w: %d bytes after the open-day state", persist.ErrCorrupt, in.Len())
	}
	o.days[d] = a
	return nil
}
