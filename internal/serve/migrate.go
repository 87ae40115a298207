package serve

import (
	"crypto/ed25519"
	"fmt"
	"os"
	"path/filepath"

	"acobe/internal/audit"
	"acobe/internal/cert"
)

// The unsharded server that preceded the one-shard layout named its files
// wal-<seq>.log and snapshot-<day>.snap and wrote no manifest. Nothing
// writes those names any more; Open and VerifyAudit refuse a directory
// that still holds them, and Migrate converts one in place.
const (
	legacyWALPrefix  = "wal-"
	legacySnapPrefix = "snapshot-"
)

// legacyFiles lists a data directory's unsharded-layout WAL segments and
// snapshots (newest first). Shard-named files never match: their middle
// part is not purely numeric.
func legacyFiles(dir string) (segs, snaps []dirFile, err error) {
	if segs, err = listSegments(filepath.Join(dir, "wal"), legacyWALPrefix); err != nil && !os.IsNotExist(err) {
		return nil, nil, err
	}
	snaps, err = listSnapshots(dir, legacySnapPrefix)
	return segs, snaps, err
}

// checkLegacy fails, naming the file, when dir still holds the unsharded
// layout.
func checkLegacy(dir string) error {
	segs, snaps, err := legacyFiles(dir)
	if err != nil {
		return err
	}
	var name string
	switch {
	case len(snaps) > 0:
		name = filepath.Base(snaps[0].path)
	case len(segs) > 0:
		name = filepath.Base(segs[0].path)
	default:
		return nil
	}
	return fmt.Errorf("serve: %s was written by the unsharded server, whose layout is no longer read — run `acobed -migrate -data-dir %s` once, then open the directory with one shard", name, dir)
}

// MigrateReport says what one Migrate call converted (all zero when the
// directory was already in the current layout).
type MigrateReport struct {
	Segments  int  // WAL segments renamed to the shard-0 stream
	Snapshots int  // snapshots renamed, one manifest written for each
	Audit     bool // the manifests were signed with the directory's audit key
}

// Migrate converts a data directory written by the unsharded server to
// the one-shard layout, offline and in place: WAL segments and snapshots
// are renamed to the shard-0 names and one manifest is written per
// retained snapshot (one shard, the snapshot's day, the batch high-water
// mark found by scanning the retained log, and under audit the snapshot's
// attested chain head, signed with the directory key). No file's content
// changes, so the audit chain stays intact. It is idempotent, and a crash
// part-way leaves a directory that Open still refuses and a second
// Migrate finishes: each manifest is published before its snapshot takes
// the name the manifest refers to.
func Migrate(dir string) (*MigrateReport, error) {
	segs, snaps, err := legacyFiles(dir)
	if err != nil {
		return nil, err
	}
	rep := &MigrateReport{Segments: len(segs), Snapshots: len(snaps)}
	fs := persistFS{}
	walDir := filepath.Join(dir, "wal")
	for _, sf := range segs {
		if err := moveLegacy(fs, sf.path, walSegPath(walDir, walShardPrefix(0), uint64(sf.num))); err != nil {
			return nil, err
		}
	}
	if len(segs) > 0 {
		if err := fs.syncDir(walDir); err != nil {
			return nil, err
		}
	}
	if len(snaps) == 0 {
		return rep, nil
	}

	// The snapshot headers say whether the directory is audited and where
	// the retained log starts; one walk of that log then checks it the way
	// Open will and finds the highest batch ID any frame carries (recovery
	// resumes numbering past the manifest's mark).
	hdrs := make([]snapHeader, len(snaps))
	for i, e := range snaps {
		if hdrs[i], err = readSnapHeader(e.path); err != nil {
			return nil, fmt.Errorf("serve: migrate: %s: %w", filepath.Base(e.path), err)
		}
	}
	rep.Audit = hdrs[0].audited
	o := walkOpts{audited: rep.Audit, from: &hdrs[len(hdrs)-1].pos} // the oldest snapshot's position
	var priv ed25519.PrivateKey
	if rep.Audit {
		if _, err := os.Stat(filepath.Join(dir, audit.KeyFileName)); err != nil {
			return nil, fmt.Errorf("serve: migrate: audited directory without its signing key: %w", err)
		}
		if priv, err = audit.LoadOrCreateKey(dir); err != nil {
			return nil, err
		}
		for i, e := range snaps {
			if hdrs[i], err = verifySnapshotFile(e.path, priv.Public().(ed25519.PublicKey)); err != nil {
				return nil, fmt.Errorf("serve: migrate: %s: %w", filepath.Base(e.path), err)
			}
			o.checks = append(o.checks, headCheck{pos: hdrs[i].pos, head: hdrs[i].head, what: filepath.Base(e.path)})
		}
	}
	m := manifestInfo{shards: 1}
	if _, err := walkStream(walDir, walShardPrefix(0), o, func(f *walkedFrame) error {
		m.batchHWM = max(m.batchHWM, f.rec.batchID)
		return nil
	}); err != nil {
		return nil, fmt.Errorf("serve: migrate: %w", err)
	}
	for i, e := range snaps {
		m.day = cert.Day(e.num)
		if priv != nil {
			m.heads = []audit.Head{hdrs[i].head}
		}
		if err := publishManifest(fs, dir, m, priv); err != nil {
			return nil, err
		}
		if err := moveLegacy(fs, e.path, snapPath(dir, snapShardPrefix(0), m.day)); err != nil {
			return nil, err
		}
	}
	return rep, fs.syncDir(dir)
}

// moveLegacy renames one legacy file to its shard-0 name, refusing to
// replace a file that is already there (a directory mixing both layouts
// is not one this server wrote).
func moveLegacy(fs persistFS, from, to string) error {
	if _, err := os.Stat(to); err == nil {
		return fmt.Errorf("serve: migrate: %s already exists beside %s", filepath.Base(to), filepath.Base(from))
	}
	return fs.rename(from, to)
}
