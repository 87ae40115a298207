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

// Head returns the user index and kind the candidate's ID starts with.
func (c *Candidate) Head() (u, kind int) { return idHead(c.ID) }

// idHead returns the user index and kind a candidate ID starts with.
func idHead[ID string | []byte](id ID) (u, kind int) {
	return int(id[0])<<24 | int(id[1])<<16 | int(id[2])<<8 | int(id[3]), int(id[4])
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

// Lifecycle is the day lifecycle both extractors (this package's and
// internal/enterprise) embed: the table, the open days' accumulators, the
// order days close in, and the state framing around them. An extractor
// adds what is its own — what an event folds into and how a closed day's
// candidates resolve against its history.
type Lifecycle struct {
	table *Table
	// magic heads the extractor's own state, after the table's.
	magic         string
	kinds, stride int

	lastDay cert.Day
	started bool
	// lastIdx is the user index the last event resolved to, or -1.
	lastIdx int

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

// NewLifecycle sizes accumulators for t's shape and the extractor's number
// of candidate kinds; magic heads the extractor's state.
func NewLifecycle(t *Table, kinds int, magic string) Lifecycle {
	return Lifecycle{
		table: t, magic: magic, kinds: kinds, stride: len(t.features) * t.frames,
		lastIdx: -1, days: make(map[cert.Day]*DayAcc),
	}
}

// Table returns the measurement table.
func (l *Lifecycle) Table() *Table { return l.table }

// Open is the prologue of every apply: it refuses a closed day, resolves
// the user (a nil accumulator, and nothing opened, for a user outside the
// table), opens d's accumulator and counts the event in it. cells is the
// user's [feature][frame] block already offset to t's frame: cells[off] is
// (the feature at offset off, the event's frame).
func (l *Lifecycle) Open(d cert.Day, user string, t time.Time) (a *DayAcc, u, frame int, cells []float64, err error) {
	if l.started && d <= l.lastDay {
		return nil, 0, 0, nil, fmt.Errorf("features: days must be consumed in order (got %v after %v)", d, l.lastDay)
	}
	// Shippers batch by user: the last one found is tried first.
	u = l.lastIdx
	if u < 0 || user != l.table.users[u] {
		if u = l.table.UserIndex(user); u < 0 {
			return nil, 0, 0, nil, nil
		}
		l.lastIdx = u
	}
	a = l.day(d)
	a.Events++
	frame = int(cert.TimeframeOfHour(t.Hour()))
	return a, u, frame, a.Cells[u*l.stride+frame:], nil
}

// day returns d's accumulator, opening it on first use.
func (l *Lifecycle) day(d cert.Day) *DayAcc {
	if l.cur != nil && l.curDay == d {
		return l.cur
	}
	a := l.days[d]
	if a == nil {
		a = &DayAcc{Cells: l.free, index: make(map[string]int32)}
		if l.free = nil; a.Cells == nil {
			a.Cells = make([]float64, len(l.table.users)*l.stride)
		}
		l.days[d] = a
	}
	l.curDay, l.cur = d, a
	return a
}

// Close closes day d, which must follow the last closed day with no
// earlier day still open: resolve settles the day's candidates into its
// cells (a user's block starts at u × stride), the cells are written into
// the table, and the block is kept for the next day opened. A day no event
// named writes nothing, and a day outside the table's span only moves the
// history (callers may stream a full dataset into a sub-range table). It
// returns how many events the day held.
func (l *Lifecycle) Close(d cert.Day, resolve func(a *DayAcc, stride int)) (events int, err error) {
	if l.started && d <= l.lastDay {
		return 0, fmt.Errorf("features: days must be consumed in order (got %v after %v)", d, l.lastDay)
	}
	for od := range l.days {
		if od < d {
			return 0, fmt.Errorf("features: closing %v with an earlier day still open", d)
		}
	}
	l.started, l.lastDay = true, d
	a := l.days[d]
	if a == nil {
		return 0, nil
	}
	delete(l.days, d)
	if l.cur == a {
		l.cur = nil
	}
	resolve(a, l.stride)
	l.table.AddDay(d, a.Cells)
	clear(a.Cells)
	l.free = a.Cells
	return a.Events, nil
}

// OpenDays returns the number of events applied to each day not yet
// closed.
func (l *Lifecycle) OpenDays() map[cert.Day]int {
	out := make(map[cert.Day]int, len(l.days))
	for d, a := range l.days {
		out[d] = a.Events
	}
	return out
}

// extractorVersion is the version both extractors stamp on their state.
const extractorVersion = 1

// SaveHead writes what the lifecycle holds of the closed days — the table,
// then the extractor's magic and where the closes stand — and returns the
// writer the extractor appends its history to. Open days are saved one by
// one (SaveOpenDay).
func (l *Lifecycle) SaveHead(w io.Writer) (*persist.Writer, error) {
	if err := l.table.SaveState(w); err != nil {
		return nil, err
	}
	pw := persist.NewWriter(w)
	pw.Magic(l.magic, extractorVersion)
	pw.Bool(l.started)
	pw.I64(int64(l.lastDay))
	return pw, nil
}

// LoadHead restores what SaveHead wrote into a freshly constructed
// extractor over the same users and start day, and returns the reader the
// extractor reads its history from.
func (l *Lifecycle) LoadHead(r io.Reader) (*persist.Reader, error) {
	if err := l.table.LoadState(r); err != nil {
		return nil, err
	}
	pr := persist.NewReader(r)
	if v := pr.Magic(l.magic); pr.Err() == nil && v != extractorVersion {
		return nil, fmt.Errorf("features: %s extractor state version %d unsupported", l.magic, v)
	}
	l.started = pr.Bool()
	l.lastDay = cert.Day(pr.I64())
	return pr, nil
}

const (
	openDayMagic   = "ACOD"
	openDayVersion = 1
)

// SaveOpenDay writes open day d's accumulator: shape, event count, block,
// and the candidates sorted by key, so equal accumulators give equal bytes
// however their events arrived.
func (l *Lifecycle) SaveOpenDay(w io.Writer, d cert.Day) error {
	a := l.days[d]
	if a == nil {
		return fmt.Errorf("features: day %v is not open", d)
	}
	pw := persist.NewWriter(w)
	pw.Magic(openDayMagic, openDayVersion)
	pw.Int(len(l.table.users))
	pw.Int(len(l.table.features))
	pw.Int(l.table.frames)
	pw.Int(l.kinds)
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

// LoadOpenDay opens day d from a blob SaveOpenDay wrote, after LoadState,
// for an extractor of the same shape that has not closed d. The blob is
// outside input: anything SaveOpenDay could not have written — another
// shape, a user or kind out of range, candidates out of order or repeated,
// bytes left over — is refused, and nothing is opened.
func (l *Lifecycle) LoadOpenDay(blob []byte, d cert.Day) error {
	if l.started && d <= l.lastDay {
		return fmt.Errorf("features: open-day state for %v, closed through %v", d, l.lastDay)
	}
	if l.days[d] != nil {
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
	if t := l.table; users != len(t.users) || feats != len(t.features) || frames != t.frames || kinds != l.kinds {
		return fmt.Errorf("features: open-day state shape (%d users, %d features, %d frames, %d kinds) does not match (%d, %d, %d, %d)",
			users, feats, frames, kinds, len(t.users), len(t.features), t.frames, l.kinds)
	}
	if events < 0 {
		return fmt.Errorf("%w: open-day state counts %d events", persist.ErrCorrupt, events)
	}
	a := &DayAcc{Events: events, Cells: pr.F64s(users * l.stride), index: make(map[string]int32)}
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
		if u, kind := c.Head(); u >= users || kind >= kinds || c.First.Frame < 0 || int(c.First.Frame) >= frames {
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
	l.days[d] = a
	return nil
}
