package features

import (
	"fmt"
	"io"
	"slices"

	"acobe/internal/cert"
	"acobe/internal/persist"
)

// State serialization for the measurement table and the CERT extractor.
// The serving daemon snapshots both at day-close barriers so that a
// restart can resume ingestion exactly where it stopped: the table carries
// every measurement, the extractor carries the first-seen trackers the
// "new-op" features depend on. Encodings are deterministic (history keys
// are written sorted), so equal state always serializes to identical bytes
// — tests prove deep state equality by comparing encodings.

const (
	tableStateMagic     = "ACTB"
	tableStateVersion   = 1
	extractorStateMagic = "ACXT"
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
	if err := t.matchState(users, feats); err != nil {
		return err
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

// matchState refuses a saved table whose users or features are not this
// table's, naming what differs: the first user that does, and the features
// one side holds and the other does not.
func (t *Table) matchState(users, feats []string) error {
	if !slices.Equal(users, t.users) {
		i := 0
		for i < len(users) && i < len(t.users) && users[i] == t.users[i] {
			i++
		}
		return fmt.Errorf("features: table state holds %d users, this table %d; first difference at user %d: %s in the state, %s here",
			len(users), len(t.users), i, nameAt(users, i), nameAt(t.users, i))
	}
	if slices.Equal(feats, t.features) {
		return nil
	}
	var missing, extra []string
	for _, f := range t.features {
		if !slices.Contains(feats, f) {
			missing = append(missing, f)
		}
	}
	for _, f := range feats {
		if !slices.Contains(t.features, f) {
			extra = append(extra, f)
		}
	}
	if len(missing) == 0 && len(extra) == 0 {
		return fmt.Errorf("features: table state holds this table's %d features in another order %q", len(feats), feats)
	}
	return fmt.Errorf("features: table state holds %d features, this table %d: missing from the state %q, extra in the state %q",
		len(feats), len(t.features), missing, extra)
}

// nameAt quotes names[i], or says there is none.
func nameAt(names []string, i int) string {
	if i < len(names) {
		return fmt.Sprintf("%q", names[i])
	}
	return "none"
}

// SaveState writes the extractor's table and first-seen trackers — the
// state of the closed days. Open days are saved one by one (SaveOpenDay).
// The history is written per kind, then per user: every user's keys, as a
// sorted list.
func (x *Extractor) SaveState(w io.Writer) error {
	pw, err := x.SaveHead(w)
	if err != nil {
		return err
	}
	users := len(x.table.users)
	for kind := 0; kind < numKinds; kind++ {
		pw.U64(uint64(users))
		for u := 0; u < users; u++ {
			x.seen.WriteKeys(pw, u, kind)
		}
	}
	return pw.Err()
}

// LoadState restores state written by SaveState into a freshly constructed
// extractor over the same users and start day. A user count other than the
// table's means the state was written for another shape; a key list out of
// order or repeating a key is one SaveState cannot write: both fail the
// whole load.
func (x *Extractor) LoadState(r io.Reader) error {
	pr, err := x.LoadHead(r)
	if err != nil {
		return err
	}
	users := len(x.table.users)
	x.seen = NewKeySet(users, numKinds)
	for kind := 0; kind < numKinds && pr.Err() == nil; kind++ {
		if n := pr.Len(); pr.Err() == nil && n != users {
			pr.Fail(fmt.Errorf("%w: first-seen tracker has %d users, want %d", persist.ErrCorrupt, n, users))
		}
		for u := 0; u < users && pr.Err() == nil; u++ {
			x.seen.ReadKeys(pr, u, kind)
		}
	}
	if err := pr.Err(); err != nil {
		return fmt.Errorf("features: load extractor state: %w", err)
	}
	return nil
}
