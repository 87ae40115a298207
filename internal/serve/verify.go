package serve

import (
	"bytes"
	"crypto/ed25519"
	"crypto/sha256"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"os"
	"path/filepath"

	"acobe/internal/audit"
	"acobe/internal/persist"
)

// ErrAuditChainBroken reports a verified audit failure: some sealed byte
// of the log (a WAL frame, a seal, a segment header link, a snapshot, or
// a manifest) no longer matches the hash chain or a signature over it.
// Distinct from ErrPersistenceFailed (an I/O failure writing new state):
// a broken chain means the *history* cannot be trusted, and the server
// fail-stops at recovery rather than serve state the log contradicts.
var ErrAuditChainBroken = errors.New("serve: audit chain broken")

// VerifyReport summarizes one offline VerifyAudit walk.
type VerifyReport struct {
	Fingerprint string
	Shards      int
	Segments    int
	Frames      int
	Batches     int
	Events      int
	Seals       int
	Receipts    int
	Snapshots   int
	Manifests   int
}

// VerifyAudit walks an audited data directory offline and verifies the
// full tamper-evidence chain: every shard's WAL stream (frame CRCs,
// chain folds, recomputed batch Merkle roots, seals, header links,
// receipt signatures and anchoring), every published snapshot's CRC,
// ed25519 signature, and attested chain head, and every manifest's
// signature and per-shard heads. The shard count is autodetected from the
// files present. It stops at the first divergence with a segment/offset
// diagnostic wrapping ErrAuditChainBroken.
//
// Run it against a cleanly shut-down (or freshly recovered) directory:
// a crash's torn tail is unverifiable trailing garbage to the strict
// walk, and recovery is what truncates it.
func VerifyAudit(dir string, pub ed25519.PublicKey) (*VerifyReport, error) {
	rep := &VerifyReport{Fingerprint: audit.Fingerprint(pub)}
	walDir := filepath.Join(dir, "wal")
	if err := checkLegacy(dir); err != nil {
		return nil, err
	}

	// Shard-count autodetection: a manifest pins it; before the first
	// snapshot round a directory has no manifest yet, so fall back to the
	// per-shard WAL filenames themselves. Trusting the names is fine —
	// every stream found is fully verified, and the unclaimed-file sweep
	// below refuses anything the walk didn't cover.
	mans, err := listManifests(dir)
	if err != nil {
		return nil, err
	}
	if len(mans) > 0 {
		m, err := loadManifestInfo(mans[0].path)
		if err != nil {
			return nil, fmt.Errorf("%w: %s: %v", ErrAuditChainBroken, filepath.Base(mans[0].path), err)
		}
		rep.Shards = m.shards
	} else if rep.Shards, err = scanShardCount(walDir); err != nil {
		return nil, err
	}
	claimed := map[string]bool{}

	// Snapshot attested heads become chain checks on their shard's walk.
	checks := make([][]headCheck, rep.Shards)
	for si := range checks {
		snaps, err := listSnapshots(dir, snapShardPrefix(si))
		if err != nil {
			return nil, err
		}
		for _, e := range snaps {
			name := filepath.Base(e.path)
			hdr, err := verifySnapshotFile(e.path, pub)
			if err != nil {
				return nil, fmt.Errorf("%w: %s: %v", ErrAuditChainBroken, name, err)
			}
			checks[si] = append(checks[si], headCheck{pos: hdr.pos, head: hdr.head, what: name})
			claimed[name] = true
			rep.Snapshots++
		}
	}

	// Manifests: signature, per-shard heads equal to the same-day shard
	// snapshots' attested heads.
	for _, me := range mans {
		name := filepath.Base(me.path)
		m, err := loadManifestInfo(me.path)
		if err != nil {
			return nil, fmt.Errorf("%w: %s: %v", ErrAuditChainBroken, name, err)
		}
		if !m.audited {
			return nil, fmt.Errorf("%w: %s: %v", ErrAuditChainBroken, name, auditMismatch(false))
		}
		if !m.verifySig(pub) {
			return nil, fmt.Errorf("%w: %s: manifest signature invalid (key %s)", ErrAuditChainBroken, name, audit.Fingerprint(pub))
		}
		for k, h := range m.heads {
			hdr, err := verifySnapshotFile(snapPath(dir, snapShardPrefix(k), m.day), pub)
			if err != nil {
				return nil, fmt.Errorf("%w: %s: shard %d snapshot: %v", ErrAuditChainBroken, name, k, err)
			}
			if hdr.head != h {
				return nil, fmt.Errorf("%w: %s: shard %d head does not match its snapshot's attested head", ErrAuditChainBroken, name, k)
			}
		}
		claimed[name] = true
		rep.Manifests++
	}

	// The WAL streams themselves.
	for si := range checks {
		prefix := walShardPrefix(si)
		_, err := walkStream(walDir, prefix, walkOpts{audited: true, strict: true, checks: checks[si]}, func(f *walkedFrame) error {
			rep.Frames++
			switch f.rec.typ {
			case recEvents, recEventsPart:
				rep.Batches++
				rep.Events += len(f.rec.events)
			case recSeal:
				rep.Seals++
			case recReceipt:
				if !f.rec.receipt.VerifySig(pub) {
					return fmt.Errorf("%w: %s offset %d: receipt signature invalid", ErrAuditChainBroken, filepath.Base(walSegPath(walDir, prefix, f.pos.seg)), f.pos.off)
				}
				rep.Receipts++
			}
			return nil
		})
		if err != nil {
			return nil, err
		}
		segs, err := listSegments(walDir, prefix)
		if err != nil {
			return nil, err
		}
		for _, sf := range segs {
			claimed[filepath.Base(sf.path)] = true
		}
		rep.Segments += len(segs)
	}

	// Unclaimed-file sweep: every artifact on disk that looks like part
	// of the log must have been covered by the walk above. A WAL segment,
	// snapshot, or manifest the streams didn't claim (wrong shard index,
	// unparseable sequence) is unverifiable history, not something to
	// silently skip.
	if err := sweepUnclaimed(walDir, claimed, "wal-", ".log"); err != nil {
		return nil, err
	}
	if err := sweepUnclaimed(dir, claimed, "snapshot-", snapSuffix); err != nil {
		return nil, err
	}
	if err := sweepUnclaimed(dir, claimed, manifestPrefix, manifestSuffix); err != nil {
		return nil, err
	}
	return rep, nil
}

// scanShardCount infers the shard count of a manifest-less directory from
// the per-shard WAL segment names: wal-shard<k>-<seq>.log present for any
// k means max(k)+1 streams. Returns 0 for an empty directory.
func scanShardCount(walDir string) (int, error) {
	files, err := listDir(walDir, "wal-", ".log")
	if err != nil && !os.IsNotExist(err) {
		return 0, err
	}
	n := 0
	for _, f := range files {
		n = max(n, f.shard+1)
	}
	return n, nil
}

// sweepUnclaimed errors on any file in dir matching prefix/suffix that the
// verification walk did not claim.
func sweepUnclaimed(dir string, claimed map[string]bool, prefix, suffix string) error {
	files, err := listDir(dir, prefix, suffix)
	if err != nil && !os.IsNotExist(err) {
		return err
	}
	for _, f := range files {
		if name := filepath.Base(f.path); !claimed[name] {
			return fmt.Errorf("%w: %s: file not covered by the verified layout", ErrAuditChainBroken, name)
		}
	}
	return nil
}

// verifySnapshotFile checks one audit-mode snapshot standalone: trailing
// ed25519 signature over SHA-256(body‖CRC), body CRC, an audited header,
// and returns that header — the attested (position, chain head). It needs
// no server configuration — the offline verifier's snapshot check.
func verifySnapshotFile(path string, pub ed25519.PublicKey) (snapHeader, error) {
	var hdr snapHeader
	data, err := os.ReadFile(path)
	if err != nil {
		return hdr, err
	}
	if len(data) < 4+audit.SigSize {
		return hdr, fmt.Errorf("snapshot too short for checksum and signature")
	}
	body := data[:len(data)-audit.SigSize]
	var sig [audit.SigSize]byte
	copy(sig[:], data[len(data)-audit.SigSize:])
	d := sha256.Sum256(body)
	if !audit.VerifyContext(pub, sig, audit.ContextSnapshot, d[:]) {
		return hdr, fmt.Errorf("snapshot signature invalid (key %s)", audit.Fingerprint(pub))
	}
	crcBody := body[:len(body)-4]
	if got, want := binary.LittleEndian.Uint32(body[len(body)-4:]), crc32.ChecksumIEEE(crcBody); got != want {
		return hdr, fmt.Errorf("snapshot checksum mismatch (stored %08x, computed %08x)", got, want)
	}
	pr := persist.NewReader(bytes.NewReader(crcBody))
	hdr = decodeSnapHeader(pr)
	if err := pr.Err(); err != nil {
		return hdr, err
	}
	if !hdr.audited {
		return hdr, fmt.Errorf("snapshot %w", auditMismatch(false))
	}
	return hdr, nil
}
