package serve

import (
	"cmp"
	"crypto/ed25519"
	"errors"
	"fmt"
	"os"
	"path/filepath"

	"acobe/internal/audit"
	"acobe/internal/cert"
)

// cutPolicy is what a caller of scanCuts decides.
type cutPolicy struct {
	pub    ed25519.PublicKey
	shards int                                          // configured; 0: the directory pins it
	read   func(k int, path string) (snapHeader, error) // reads and verifies shard k's snapshot
	before func(m *manifestInfo) error                  // if set, runs before a generation is read
	strict bool                                         // refuse damage and read every snapshot
	fan    func(n int, body func(k int))
}

// dirCuts is what scanCuts found.
type dirCuts struct {
	manifests int
	cut       *manifestInfo // the newest usable cut, nil if none
	hdrs      []snapHeader  // its snapshot headers, by shard
	checks    [][]headCheck // by shard, the head every snapshot read attests
	skipped   []error       // each cut passed over, as "file: reason"
}

// scanCuts is the one read-only scan of a data directory's cuts, for Open
// and VerifyAudit alike. It decodes each manifest once, newest first; with
// no shard count configured, the newest pins it (with none, or a damaged
// one, the WAL names decide: wal-shard<k>-* means at least k+1 streams).
// Then checkLayout runs, before any snapshot is read, and the cut rules
// are applied here and nowhere else. A manifest must decode, pin the
// shard count and carry a valid signature, and the day it pins must be
// the day in its name. Each shard snapshot it names must pass p.read,
// which verifies the snapshot's signature; only then is its header
// compared: its day with the manifest's, its chain head with the head the
// manifest pins for its shard. A contradicted signature or head fails the
// scan with ErrAuditChainBroken, a day that does not match passes the cut
// over, and so does damage unless p.strict. A directory with manifests but
// no usable cut is refused, naming every cut passed over. Open passes over
// damage and stops at the newest usable cut; VerifyAudit (strict) reads
// every snapshot, those no usable manifest names too.
func scanCuts(dir string, p cutPolicy) (*dirCuts, error) {
	files, err := listManifests(dir)
	if err != nil {
		return nil, err
	}
	mans, merrs := make([]manifestInfo, len(files)), make([]error, len(files))
	for i, f := range files {
		data, err := os.ReadFile(f.path)
		if err == nil {
			mans[i], err = decodeManifest(data)
		}
		merrs[i] = err
	}
	walDir := filepath.Join(dir, "wal")
	if p.shards == 0 && len(files) > 0 && merrs[0] == nil {
		p.shards = mans[0].shards
	} else if p.shards == 0 {
		segs, _ := listDir(walDir, "wal-", ".log") // checkLayout reports an unreadable directory
		for _, f := range segs {
			p.shards = max(p.shards, f.shard+1)
		}
	}
	if err := checkLayout(dir, walDir, p.shards); err != nil {
		return nil, err
	}
	c := &dirCuts{manifests: len(files), checks: make([][]headCheck, p.shards)}
	read := make(map[cert.Day]bool) // the days whose snapshots were read
	for i := range mans {
		m, name := &mans[i], filepath.Base(files[i].path)
		switch err := merrs[i]; {
		case err != nil && p.strict:
			return nil, fmt.Errorf("%s: %w", name, err)
		case err != nil:
			c.skipped = append(c.skipped, fmt.Errorf("%s: %w", name, err))
			continue
		case m.shards != p.shards:
			// A configuration or layout mismatch, not corruption: passing
			// over it would recover an older cut of another layout.
			return nil, fmt.Errorf("serve: manifest %s pins %d shards, %d configured", name, m.shards, p.shards)
		case !m.verifySig(p.pub):
			return nil, fmt.Errorf("%w: manifest %s signature invalid (key %s)", ErrAuditChainBroken, name, audit.Fingerprint(p.pub))
		case int64(m.day) != files[i].num:
			c.skipped = append(c.skipped, fmt.Errorf("%s: pinned day %d does not match its name", name, int64(m.day)))
			continue
		}
		if p.before != nil {
			if err := p.before(m); err != nil {
				return nil, err
			}
		}
		hdrs, errs := make([]snapHeader, p.shards), make([]error, p.shards)
		p.fan(p.shards, func(k int) { hdrs[k], errs[k] = p.read(k, snapPath(dir, snapShardPrefix(k), m.day)) })
		read[m.day] = true
		var skip error
		for k, h := range hdrs {
			snap := filepath.Base(snapPath(dir, snapShardPrefix(k), m.day))
			switch {
			case errs[k] != nil && (p.strict || errors.Is(errs[k], ErrAuditChainBroken)):
				return nil, fmt.Errorf("%s: %w", snap, errs[k])
			case errs[k] != nil:
				skip = cmp.Or(skip, fmt.Errorf("%s: %w", snap, errs[k]))
				continue
			case h.day != m.day:
				skip = cmp.Or(skip, fmt.Errorf("%s: snapshot day %d does not match manifest %s day %d", snap, int64(h.day), name, int64(m.day)))
			case h.head != m.heads[k]:
				// Both files verified their signatures yet disagree about
				// the head at the cut: a re-signed forgery or a splice.
				return nil, fmt.Errorf("%w: %s attests a chain head that does not match manifest %s", ErrAuditChainBroken, snap, name)
			}
			c.checks[k] = append(c.checks[k], headCheck{pos: h.pos, head: h.head, what: snap})
		}
		if skip != nil {
			c.skipped = append(c.skipped, skip)
		} else if c.cut == nil {
			c.cut, c.hdrs = m, hdrs
		}
		if c.cut != nil && !p.strict {
			return c, nil
		}
	}
	if len(files) > 0 && c.cut == nil {
		return nil, fmt.Errorf("serve: no usable snapshot cut in %s: %w", dir, errors.Join(c.skipped...))
	}
	// A snapshot no manifest led to (a crash between a round's snapshots
	// and its manifest leaves some) still attests its head. The layout
	// check has refused every name that is not a configured shard's.
	snaps, err := listDir(dir, "snapshot-", snapSuffix)
	for _, e := range snaps {
		if p.strict && !read[cert.Day(e.num)] {
			h, err := p.read(e.shard, e.path)
			if err != nil {
				return nil, fmt.Errorf("%s: %w", filepath.Base(e.path), err)
			}
			c.checks[e.shard] = append(c.checks[e.shard], headCheck{pos: h.pos, head: h.head, what: filepath.Base(e.path)})
		}
	}
	return c, err
}
