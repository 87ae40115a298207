package enterprise

import (
	"fmt"
	"io"
	"slices"

	"acobe/internal/features"
	"acobe/internal/persist"
)

const extractorStateMagic = "ACEX"

// seenCategories names the first-seen trackers in serialization order: the
// candidate kinds below kindHost.
var seenCategories = [numSeen]string{"command", "config", "domain", "file", "resource"}

// SaveState writes the extractor's table and first-seen trackers — the
// state of the closed days; open days are saved one by one (SaveOpenDay) —
// so the serving daemon can snapshot mid-stream and resume after a restart
// with the "new"-object features unchanged. Per category it writes the
// users holding at least one object, in index order, each with its objects
// sorted: equal state always serializes to identical bytes.
func (x *Extractor) SaveState(w io.Writer) error {
	pw, err := x.SaveHead(w)
	if err != nil {
		return err
	}
	users := len(x.Table().Users())
	pw.U64(uint64(len(seenCategories)))
	for kind, cat := range seenCategories {
		pw.String(cat)
		n := 0
		for u := 0; u < users; u++ {
			if x.seen.Count(u, kind) > 0 {
				n++
			}
		}
		pw.U64(uint64(n))
		for u := 0; u < users; u++ {
			if x.seen.Count(u, kind) > 0 {
				pw.Int(u)
				x.seen.WriteKeys(pw, u, kind)
			}
		}
	}
	return pw.Err()
}

// LoadState restores state written by SaveState into a freshly constructed
// extractor over the same employees and start day. Anything SaveState
// cannot write — the categories other than all five in order, a user index
// out of range, repeated or descending, a user listed with no objects, an
// object list out of order or repeating an object — fails the whole load.
func (x *Extractor) LoadState(r io.Reader) error {
	pr, err := x.LoadHead(r)
	if err != nil {
		return err
	}
	users := len(x.Table().Users())
	x.seen = features.NewKeySet(users, numSeen)
	if n := pr.Len(); pr.Err() == nil && n != len(seenCategories) {
		pr.Fail(fmt.Errorf("%w: extractor state has %d categories, want %d", persist.ErrCorrupt, n, len(seenCategories)))
	}
	for kind := 0; kind < numSeen && pr.Err() == nil; kind++ {
		cat := pr.String()
		if pr.Err() == nil && cat != seenCategories[kind] {
			pr.Fail(misplacedCategory(cat, kind))
		}
		n := pr.Len()
		prev := -1
		for i := 0; i < n && pr.Err() == nil; i++ {
			u := pr.Int()
			switch {
			case pr.Err() != nil:
			case u < 0 || u >= users:
				pr.Fail(fmt.Errorf("%w: %s history names user index %d of %d", persist.ErrCorrupt, cat, u, users))
			case u <= prev:
				pr.Fail(fmt.Errorf("%w: %s history lists user %d after user %d", persist.ErrCorrupt, cat, u, prev))
			default:
				if x.seen.ReadKeys(pr, u, kind) == 0 && pr.Err() == nil {
					pr.Fail(fmt.Errorf("%w: %s history lists user %d with no objects", persist.ErrCorrupt, cat, u))
				}
			}
			prev = u
		}
	}
	if err := pr.Err(); err != nil {
		return fmt.Errorf("enterprise: load extractor state: %w", err)
	}
	return nil
}

// misplacedCategory names what is wrong with category cat read where
// seenCategories[kind] belongs.
func misplacedCategory(cat string, kind int) error {
	switch k := slices.Index(seenCategories[:], cat); {
	case k < 0:
		return fmt.Errorf("%w: unknown first-seen category %q", persist.ErrCorrupt, cat)
	case k < kind:
		return fmt.Errorf("%w: first-seen category %q repeated", persist.ErrCorrupt, cat)
	default:
		return fmt.Errorf("%w: first-seen category %q where %q belongs", persist.ErrCorrupt, cat, seenCategories[kind])
	}
}
