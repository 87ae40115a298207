package enterprise

import (
	"fmt"
	"io"
	"slices"
	"sort"

	"acobe/internal/cert"
	"acobe/internal/persist"
)

const (
	extractorStateMagic = "ACEX"
	extractorVersion    = 1
)

// seenCategories names the first-seen trackers in serialization order: the
// candidate kinds below kindHost.
var seenCategories = [numSeen]string{"command", "config", "domain", "file", "resource"}

// SaveState writes the extractor's table and first-seen trackers — the
// state of the closed days; open days are saved one by one (SaveOpenDay) —
// so the serving daemon can snapshot mid-stream and resume after a restart
// with the "new"-object features unchanged. Map keys are written sorted:
// equal state always serializes to identical bytes.
func (x *Extractor) SaveState(w io.Writer) error {
	if err := x.table.SaveState(w); err != nil {
		return err
	}
	pw := persist.NewWriter(w)
	pw.Magic(extractorStateMagic, extractorVersion)
	pw.Bool(x.started)
	pw.I64(int64(x.lastDay))
	pw.U64(uint64(len(seenCategories)))
	for kind, cat := range seenCategories {
		pw.String(cat)
		n := 0
		for _, set := range x.seen[kind] {
			if set != nil {
				n++
			}
		}
		pw.U64(uint64(n))
		for u, set := range x.seen[kind] {
			if set == nil {
				continue
			}
			pw.Int(u)
			keys := make([]string, 0, len(set))
			for k := range set {
				keys = append(keys, k)
			}
			sort.Strings(keys)
			pw.Strings(keys)
		}
	}
	return pw.Err()
}

// OpenDays returns the number of records applied to each day not yet
// closed.
func (x *Extractor) OpenDays() map[cert.Day]int { return x.open.Events() }

// SaveOpenDay writes open day d's accumulator deterministically.
func (x *Extractor) SaveOpenDay(w io.Writer, d cert.Day) error { return x.open.Save(w, d) }

// LoadOpenDay restores an accumulator SaveOpenDay wrote, after LoadState,
// into an extractor of the same shape that has not closed d.
func (x *Extractor) LoadOpenDay(blob []byte, d cert.Day) error {
	if x.started && d <= x.lastDay {
		return fmt.Errorf("enterprise: open-day state for %v, closed through %v", d, x.lastDay)
	}
	return x.open.Load(blob, d)
}

// LoadState restores state written by SaveState into a freshly constructed
// extractor over the same employees and start day.
func (x *Extractor) LoadState(r io.Reader) error {
	if err := x.table.LoadState(r); err != nil {
		return err
	}
	pr := persist.NewReader(r)
	if v := pr.Magic(extractorStateMagic); pr.Err() == nil && v != extractorVersion {
		return fmt.Errorf("enterprise: extractor state version %d unsupported", v)
	}
	x.started = pr.Bool()
	x.lastDay = cert.Day(pr.I64())
	ncat := pr.Len()
	if pr.Err() == nil && ncat != len(seenCategories) {
		return fmt.Errorf("enterprise: extractor state has %d categories, want %d", ncat, len(seenCategories))
	}
	users := len(x.table.Users())
	for c := 0; c < ncat && pr.Err() == nil; c++ {
		cat := pr.String()
		kind := slices.Index(seenCategories[:], cat)
		if pr.Err() == nil && kind < 0 {
			return fmt.Errorf("enterprise: extractor state has unknown category %q", cat)
		}
		hist := make([]map[string]bool, users)
		n := pr.Len()
		for i := 0; i < n && pr.Err() == nil; i++ {
			u := pr.Int()
			keys := pr.Strings()
			if u < 0 || u >= users {
				return fmt.Errorf("enterprise: extractor state user index %d out of range", u)
			}
			set := make(map[string]bool, len(keys))
			for _, k := range keys {
				set[k] = true
			}
			hist[u] = set
		}
		if pr.Err() == nil {
			x.seen[kind] = hist
		}
	}
	if err := pr.Err(); err != nil {
		return fmt.Errorf("enterprise: load extractor state: %w", err)
	}
	return nil
}
