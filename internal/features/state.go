package features

import (
	"fmt"
	"io"
	"sort"

	"acobe/internal/cert"
	"acobe/internal/persist"
)

// State serialization for the measurement table and the CERT extractor.
// The serving daemon snapshots both at day-close barriers so that a
// restart can resume ingestion exactly where it stopped: the table carries
// every measurement, the extractor carries the first-seen trackers the
// "new-op" features depend on. Encodings are deterministic (map keys are
// sorted), so equal state always serializes to identical bytes — tests
// prove deep state equality by comparing encodings.

const (
	tableStateMagic     = "ACTB"
	tableStateVersion   = 1
	extractorStateMagic = "ACXT"
	extractorVersion    = 1
)

// SaveState writes the table's span and every measurement. The users,
// features, and frame count are written too, as an integrity check against
// restoring into a differently-shaped table.
func (t *Table) SaveState(w io.Writer) error {
	pw := persist.NewWriter(w)
	pw.Magic(tableStateMagic, tableStateVersion)
	pw.Strings(t.users)
	pw.Strings(t.features)
	pw.Int(t.frames)
	pw.I64(int64(t.start))
	pw.I64(int64(t.end))
	days := t.Days()
	series := len(t.users) * len(t.features) * t.frames
	pw.U64(uint64(series * days))
	for s := 0; s < series; s++ {
		pw.F64s(t.data[s*t.capDays : s*t.capDays+days])
	}
	return pw.Err()
}

// LoadState restores state written by SaveState into a table constructed
// over the same users, features, frames, and start day. The span is grown
// to the saved end day.
func (t *Table) LoadState(r io.Reader) error {
	pr := persist.NewReader(r)
	if v := pr.Magic(tableStateMagic); pr.Err() == nil && v != tableStateVersion {
		return fmt.Errorf("features: table state version %d unsupported", v)
	}
	users := pr.Strings()
	feats := pr.Strings()
	frames := pr.Int()
	start := cert.Day(pr.I64())
	end := cert.Day(pr.I64())
	total := pr.U64()
	if err := pr.Err(); err != nil {
		return fmt.Errorf("features: load table state: %w", err)
	}
	if !equalStrings(users, t.users) || !equalStrings(feats, t.features) {
		return fmt.Errorf("features: table state users/features do not match this table")
	}
	if frames != t.frames || start != t.start {
		return fmt.Errorf("features: table state shape (%d frames, start %v) does not match (%d, %v)",
			frames, start, t.frames, t.start)
	}
	if end < start || end < t.end {
		return fmt.Errorf("features: table state end %v behind live table end %v", end, t.end)
	}
	days := int(end-start) + 1
	series := len(t.users) * len(t.features) * t.frames
	if total != uint64(series*days) {
		return fmt.Errorf("features: table state has %d cells, want %d", total, series*days)
	}
	if err := t.EnsureDay(end); err != nil {
		return err
	}
	for s := 0; s < series; s++ {
		pr.ReadF64sInto(t.data[s*t.capDays : s*t.capDays+days])
	}
	if err := pr.Err(); err != nil {
		return fmt.Errorf("features: load table state: %w", err)
	}
	return nil
}

// SaveState writes the extractor's table and first-seen trackers — the
// state of the closed days. Open days are saved one by one (SaveOpenDay).
func (x *Extractor) SaveState(w io.Writer) error {
	if err := x.table.SaveState(w); err != nil {
		return err
	}
	pw := persist.NewWriter(w)
	pw.Magic(extractorStateMagic, extractorVersion)
	pw.Bool(x.started)
	pw.I64(int64(x.lastDay))
	for _, sets := range x.seen {
		writeSeenSets(pw, sets)
	}
	return pw.Err()
}

// LoadState restores state written by SaveState into a freshly constructed
// extractor over the same users and start day.
func (x *Extractor) LoadState(r io.Reader) error {
	if err := x.table.LoadState(r); err != nil {
		return err
	}
	pr := persist.NewReader(r)
	if v := pr.Magic(extractorStateMagic); pr.Err() == nil && v != extractorVersion {
		return fmt.Errorf("features: extractor state version %d unsupported", v)
	}
	x.started = pr.Bool()
	x.lastDay = cert.Day(pr.I64())
	for _, sets := range x.seen {
		readSeenSets(pr, sets)
	}
	if err := pr.Err(); err != nil {
		return fmt.Errorf("features: load extractor state: %w", err)
	}
	return nil
}

// OpenDays returns the number of events applied to each day not yet
// closed.
func (x *Extractor) OpenDays() map[cert.Day]int { return x.open.Events() }

// SaveOpenDay writes open day d's accumulator deterministically.
func (x *Extractor) SaveOpenDay(w io.Writer, d cert.Day) error { return x.open.Save(w, d) }

// LoadOpenDay restores an accumulator SaveOpenDay wrote, after LoadState,
// into an extractor of the same shape that has not closed d.
func (x *Extractor) LoadOpenDay(blob []byte, d cert.Day) error {
	if x.started && d <= x.lastDay {
		return fmt.Errorf("features: open-day state for %v, closed through %v", d, x.lastDay)
	}
	return x.open.Load(blob, d)
}

// writeSeenSets encodes one per-user first-seen tracker with sorted keys.
func writeSeenSets(pw *persist.Writer, sets []map[string]bool) {
	pw.U64(uint64(len(sets)))
	for _, set := range sets {
		keys := make([]string, 0, len(set))
		for k := range set {
			keys = append(keys, k)
		}
		sort.Strings(keys)
		pw.Strings(keys)
	}
}

// readSeenSets decodes into pre-sized per-user trackers, replacing their
// contents. A user-count mismatch means the state was written for a
// different extractor shape and fails the whole load.
func readSeenSets(pr *persist.Reader, sets []map[string]bool) {
	n := pr.Len()
	if pr.Err() != nil {
		return
	}
	if n != len(sets) {
		pr.Fail(fmt.Errorf("%w: first-seen tracker has %d users, want %d", persist.ErrCorrupt, n, len(sets)))
		return
	}
	for i := 0; i < n; i++ {
		keys := pr.Strings()
		if pr.Err() != nil {
			return
		}
		set := make(map[string]bool, len(keys))
		for _, k := range keys {
			set[k] = true
		}
		sets[i] = set
	}
}

func equalStrings(a, b []string) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}
