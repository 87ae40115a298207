package serve

import (
	"crypto/ed25519"
	"crypto/sha256"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"os"
	"path/filepath"
	"strings"

	"acobe/internal/audit"
)

// ErrAuditChainBroken reports a verified audit failure: some sealed byte
// of the log (a WAL frame, a seal, a segment header link, a snapshot, or
// a manifest) no longer matches the hash chain or a signature over it.
// Distinct from ErrPersistenceFailed (an I/O failure writing new state):
// a broken chain means the *history* cannot be trusted, and the server
// fail-stops at recovery rather than serve state the log contradicts.
var ErrAuditChainBroken = errors.New("serve: audit chain broken")

// segEnd summarizes one walked audit segment.
type segEnd struct {
	seq     uint64
	head    audit.Head // chain head after the last valid frame
	frames  uint32     // frames folded, seals included
	goodLen int64      // header + whole valid frames
	sealed  bool       // the last frame was a seal (clean rotation/close)
}

// auditVisit observes one verified frame during a walk: the decoded
// record, its position, the chain head immediately before it, and (for
// event records) the batch's Merkle root and copied leaf hashes.
type auditVisit func(rec walRecord, pos walPos, pre audit.Head, root audit.Head, leaves []audit.Head) error

// walkAuditSegment verifies one audit-stream segment image: header
// version and chain link against prev, every frame's CRC and chain fold,
// recomputed batch Merkle roots, seal head/seq/frame-count consistency,
// and receipt chain anchoring. strict additionally rejects any trailing
// bytes after the valid prefix (an offline verifier accounts for every
// byte; recovery tolerates a crash's torn tail on the final segment).
func walkAuditSegment(name string, data []byte, seq uint64, prev audit.Head, strict bool, visit auditVisit) (segEnd, error) {
	se := segEnd{seq: seq}
	gotSeq, ver, prevHead, _, ok := parseSegHeader(data)
	if !ok {
		return se, fmt.Errorf("%w: %s: segment header invalid", ErrAuditChainBroken, name)
	}
	if ver != walAuditVersion {
		return se, fmt.Errorf("%w: %s: segment format version %d is not an audit stream", ErrAuditChainBroken, name, ver)
	}
	if gotSeq != seq {
		return se, fmt.Errorf("%w: %s: header sequence %d, want %d", ErrAuditChainBroken, name, gotSeq, seq)
	}
	if prevHead != prev {
		return se, fmt.Errorf("%w: %s: header chain link does not match the previous segment's sealed head", ErrAuditChainBroken, name)
	}
	chain := audit.NewChain(prev)
	tree := audit.NewTree()
	_, frames, goodLen, _ := parseSegment(data)
	for _, fr := range frames {
		rec, err := decodeRecord(fr.payload)
		if err != nil {
			if strict {
				return se, fmt.Errorf("%w: %s offset %d: %v", ErrAuditChainBroken, name, fr.off, err)
			}
			// Tolerant: a CRC-valid frame that does not decode ends the
			// log here, exactly as recovery treats it.
			goodLen = fr.off
			break
		}
		pre := chain.Head()
		frame := data[fr.off : fr.off+8+len(fr.payload)]
		var root audit.Head
		var leaves []audit.Head
		switch rec.typ {
		case recEvents, recEventsPart:
			root, leaves, err = batchRoot(tree, rec.events)
			if err != nil {
				return se, fmt.Errorf("%w: %s offset %d: %v", ErrAuditChainBroken, name, fr.off, err)
			}
			chain.FoldWithRoot(frame, root)
		case recSeal:
			if rec.seal.Seq != seq || rec.seal.Frames != se.frames || rec.seal.Head != pre {
				return se, fmt.Errorf("%w: %s offset %d: seal does not match the chain walk (head/seq/frame-count diverge)", ErrAuditChainBroken, name, fr.off)
			}
			chain.Fold(frame)
		case recReceipt:
			if rec.receipt.Head != pre {
				return se, fmt.Errorf("%w: %s offset %d: receipt anchored to a different chain head", ErrAuditChainBroken, name, fr.off)
			}
			chain.Fold(frame)
		default:
			chain.Fold(frame)
		}
		se.frames++
		se.sealed = rec.typ == recSeal
		if visit != nil {
			if err := visit(rec, walPos{seg: seq, off: int64(fr.off)}, pre, root, leaves); err != nil {
				return se, err
			}
		}
	}
	se.goodLen = int64(goodLen)
	se.head = chain.Head()
	if strict && int64(len(data)) != se.goodLen {
		return se, fmt.Errorf("%w: %s: %d unverifiable trailing bytes after offset %d (torn or tampered frame)", ErrAuditChainBroken, name, int64(len(data))-se.goodLen, se.goodLen)
	}
	return se, nil
}

// headCheck pins an externally attested chain head to a frame boundary:
// a snapshot (or manifest) claims the chain stood at head when the log
// was at pos. what names the attesting artifact for diagnostics.
type headCheck struct {
	pos  walPos
	head audit.Head
	what string
}

// walkAuditStream verifies one shard's whole surviving segment stream in
// ascending sequence order: every segment via walkAuditSegment, seals at
// every rotation, cross-segment header links, and every headCheck
// against the walked chain. A pruned prefix is handled by anchoring at
// the first surviving segment's header link (which the checks then tie
// to a signed snapshot); a stream starting at segment 1 must anchor at
// the zero head. Returns the stream's end state.
func walkAuditStream(walDir, prefix string, strict bool, checks []headCheck, visit auditVisit) (segEnd, error) {
	segs, err := listSegments(walDir, prefix)
	if err != nil {
		return segEnd{}, err
	}
	var prev audit.Head
	var end segEnd
	done := make([]bool, len(checks))
	for i, seq := range segs {
		path := walSegPath(walDir, prefix, seq)
		name := filepath.Base(path)
		data, err := os.ReadFile(path)
		if err != nil {
			return end, err
		}
		if i > 0 && seq != end.seq+1 {
			return end, fmt.Errorf("%w: %s: segment follows %d — history gap", ErrAuditChainBroken, name, end.seq)
		}
		if i == 0 && seq != 1 {
			// Pruned prefix: the header's claimed link is the anchor; the
			// caller's checks tie it to a signed snapshot's attested head.
			if _, _, ph, _, ok := parseSegHeader(data); ok {
				prev = ph
			}
		}
		last := i == len(segs)-1
		// The final segment alone may carry a tolerated torn tail; any
		// earlier segment must verify byte for byte.
		se, werr := walkAuditSegment(name, data, seq, prev, strict || !last, func(rec walRecord, pos walPos, pre audit.Head, root audit.Head, leaves []audit.Head) error {
			for ci, c := range checks {
				if !done[ci] && c.pos == pos {
					if c.head != pre {
						return fmt.Errorf("%w: %s attests chain head at %s offset %d, but the walked chain differs there", ErrAuditChainBroken, c.what, name, pos.off)
					}
					done[ci] = true
				}
			}
			if visit == nil {
				return nil
			}
			return visit(rec, pos, pre, root, leaves)
		})
		if werr != nil {
			return se, werr
		}
		// Boundary checks not covered by a frame start: the segment's
		// header boundary and its end-of-log boundary.
		for ci, c := range checks {
			if done[ci] || c.pos.seg != seq {
				continue
			}
			var at audit.Head
			switch c.pos.off {
			case int64(walAuditHeaderSize):
				at = prev
			case se.goodLen:
				at = se.head
			default:
				continue
			}
			if c.head != at {
				return se, fmt.Errorf("%w: %s attests chain head at %s offset %d, but the walked chain differs there", ErrAuditChainBroken, c.what, name, c.pos.off)
			}
			done[ci] = true
		}
		if !last && !se.sealed {
			return se, fmt.Errorf("%w: %s: segment rotated without a seal", ErrAuditChainBroken, name)
		}
		prev = se.head
		end = se
	}
	for ci, c := range checks {
		if !done[ci] {
			return end, fmt.Errorf("%w: %s attests a chain head at segment %d offset %d, which is not a frame boundary of the walked log", ErrAuditChainBroken, c.what, c.pos.seg, c.pos.off)
		}
	}
	return end, nil
}

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
		if m.version != manifestAuditVersion {
			return nil, fmt.Errorf("%w: %s: manifest version %d carries no audit attestation", ErrAuditChainBroken, name, m.version)
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
		_, err := walkAuditStream(walDir, prefix, true, checks[si], func(rec walRecord, pos walPos, pre audit.Head, root audit.Head, leaves []audit.Head) error {
			rep.Frames++
			switch rec.typ {
			case recEvents, recEventsPart:
				rep.Batches++
				rep.Events += len(rec.events)
			case recSeal:
				rep.Seals++
			case recReceipt:
				if !rec.receipt.VerifySig(pub) {
					return fmt.Errorf("%w: segment %d offset %d: receipt signature invalid", ErrAuditChainBroken, pos.seg, pos.off)
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
		for _, seq := range segs {
			claimed[filepath.Base(walSegPath(walDir, prefix, seq))] = true
		}
		rep.Segments += len(segs)
	}

	// Unclaimed-file sweep: every artifact on disk that looks like part
	// of the log must have been covered by the walk above. A WAL segment,
	// snapshot, or manifest the streams didn't claim (wrong shard index,
	// unparseable sequence) is unverifiable history, not something to
	// silently skip.
	if err := sweepUnclaimed(walDir, claimed, "", ".log"); err != nil {
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
	des, err := os.ReadDir(walDir)
	if err != nil {
		if os.IsNotExist(err) {
			return 0, nil
		}
		return 0, err
	}
	n := 0
	for _, de := range des {
		name := de.Name()
		if de.IsDir() || !strings.HasSuffix(name, ".log") {
			continue
		}
		if k, ok := shardOfName(name, "wal-shard"); ok && k+1 > n {
			n = k + 1
		}
	}
	return n, nil
}

// sweepUnclaimed errors on any file in dir matching prefix/suffix that the
// verification walk did not claim.
func sweepUnclaimed(dir string, claimed map[string]bool, prefix, suffix string) error {
	des, err := os.ReadDir(dir)
	if err != nil {
		if os.IsNotExist(err) {
			return nil
		}
		return err
	}
	for _, de := range des {
		name := de.Name()
		if de.IsDir() || !strings.HasPrefix(name, prefix) || !strings.HasSuffix(name, suffix) {
			continue
		}
		if !claimed[name] {
			return fmt.Errorf("%w: %s: file not covered by the verified layout", ErrAuditChainBroken, name)
		}
	}
	return nil
}

// snapHeader is a snapshot file's audit-relevant header fields.
type snapHeader struct {
	day  int64
	pos  walPos
	head audit.Head
}

// verifySnapshotFile checks one audit-mode snapshot standalone: format
// version, body CRC, trailing ed25519 signature over SHA-256(body‖CRC),
// and returns its attested (position, chain head) header. It needs no
// server configuration — the offline verifier's snapshot check.
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
	// Header: magic(4) ver(4) day(8) seg(8) off(8) headLen(8) head(32).
	const fixed = 4 + 4 + 8 + 8 + 8
	if len(crcBody) < fixed+8+audit.HeadSize || string(crcBody[:4]) != snapMagic {
		return hdr, fmt.Errorf("snapshot header invalid")
	}
	if v := binary.LittleEndian.Uint32(crcBody[4:8]); v != snapAuditVersion {
		return hdr, fmt.Errorf("snapshot version %d carries no audit attestation", v)
	}
	hdr.day = int64(binary.LittleEndian.Uint64(crcBody[8:16]))
	hdr.pos.seg = binary.LittleEndian.Uint64(crcBody[16:24])
	hdr.pos.off = int64(binary.LittleEndian.Uint64(crcBody[24:32]))
	if n := binary.LittleEndian.Uint64(crcBody[32:40]); n != audit.HeadSize {
		return hdr, fmt.Errorf("snapshot chain head is %d bytes, want %d", n, audit.HeadSize)
	}
	copy(hdr.head[:], crcBody[40:40+audit.HeadSize])
	return hdr, nil
}
