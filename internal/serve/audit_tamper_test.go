package serve

import (
	"crypto/ed25519"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"acobe/internal/cert"
	"acobe/internal/testkit"
)

// The adversarial tamper matrix: every mutation of sealed audit history —
// WAL frames, seals, segment headers, snapshot bodies, manifests — must
// be detected by the offline verifier and localized to the artifact (and,
// for WAL bytes, the segment) it hit. The centerpiece is the CRC-fixup
// family: an adversary who flips payload bytes AND re-stamps the frame's
// CRC32 defeats every pre-audit integrity check, and the hash chain is
// exactly what still catches it.

// auditFixture builds one cleanly shut-down audited directory and returns
// its path, the public key, and the sorted shard-0 segment names.
func auditFixture(t *testing.T, shards int, days cert.Day) (string, ed25519.PublicKey) {
	t.Helper()
	dir := t.TempDir()
	s, _ := openAudit(t, dir, shards)
	feedDaysProvable(t, s, 0, days)
	pub := append(ed25519.PublicKey(nil), s.auditPub()...)
	shutdown(t, s)
	// The fixture must be verifiable before any tampering.
	if _, err := VerifyAudit(dir, pub); err != nil {
		t.Fatalf("pristine fixture does not verify: %v", err)
	}
	return dir, pub
}

// tamperCopy clones the fixture, applies one tamper, and returns the
// clone and the tampered file's base name.
func tamperCopy(t *testing.T, fixture string, tm testkit.Tamper) (string, string) {
	t.Helper()
	clone := t.TempDir()
	if err := testkit.CopyTree(fixture, clone); err != nil {
		t.Fatal(err)
	}
	path, err := tm.Apply(clone)
	if err != nil {
		t.Fatal(err)
	}
	return clone, filepath.Base(path)
}

// mustDetect asserts VerifyAudit rejects the directory with a diagnostic
// wrapping ErrAuditChainBroken that names the tampered artifact.
func mustDetect(t *testing.T, dir string, pub ed25519.PublicKey, name, context string) {
	t.Helper()
	_, err := VerifyAudit(dir, pub)
	if err == nil {
		t.Fatalf("%s: tamper of %s went undetected", context, name)
	}
	if !errors.Is(err, ErrAuditChainBroken) {
		t.Fatalf("%s: detection error does not wrap ErrAuditChainBroken: %v", context, err)
	}
	if !strings.Contains(err.Error(), name) {
		t.Fatalf("%s: diagnostic does not localize to %s: %v", context, name, err)
	}
}

// segmentNames lists the fixture's shard-0 WAL segments in order.
func segmentNames(t *testing.T, fixture string, prefix string) []string {
	t.Helper()
	walDir := filepath.Join(fixture, "wal")
	segs, err := listSegments(walDir, prefix)
	if err != nil {
		t.Fatal(err)
	}
	names := make([]string, len(segs))
	for i, sf := range segs {
		names[i] = filepath.Base(sf.path)
	}
	return names
}

// TestAuditTamperMatrixWALExhaustive flips one bit in EVERY byte of a
// sealed (non-final) WAL segment — header magic, version, sequence, chain
// link, frame lengths, CRCs, payloads, and the seal frame — cycling the
// flipped bit position with the offset so all eight bit positions are
// exercised across the segment. Every flip must be detected and localized.
func TestAuditTamperMatrixWALExhaustive(t *testing.T) {
	fixture, pub := auditFixture(t, 1, 14)
	names := segmentNames(t, fixture, walShardPrefix(0))
	if len(names) < 3 {
		t.Fatalf("fixture produced %d segments, want ≥ 3 (shrink SegmentBytes)", len(names))
	}
	// A non-final, sealed, non-first segment that survived pruning: the
	// strict walk accounts for every byte of it, and localization is exact
	// (the first surviving segment's header link is the pruning anchor, so
	// flipping it surfaces at the NEXT segment's link check instead).
	target := names[len(names)-2]
	data, err := os.ReadFile(filepath.Join(fixture, "wal", target))
	if err != nil {
		t.Fatal(err)
	}
	clone := t.TempDir()
	if err := testkit.CopyTree(fixture, clone); err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(clone, "wal", target)
	for off := int64(0); off < int64(len(data)); off++ {
		mask := byte(1) << (off % 8)
		tm := testkit.Tamper{Off: off, Mask: mask}
		if err := tm.ApplyTo(path); err != nil {
			t.Fatal(err)
		}
		if _, err := VerifyAudit(clone, pub); err == nil {
			t.Fatalf("bit flip at %s offset %d mask %02x went undetected", target, off, mask)
		} else if !errors.Is(err, ErrAuditChainBroken) {
			t.Fatalf("offset %d: error does not wrap ErrAuditChainBroken: %v", off, err)
		} else if !strings.Contains(err.Error(), target) {
			t.Fatalf("offset %d: diagnostic does not localize to %s: %v", off, target, err)
		}
		// Undo for the next iteration (XOR is its own inverse).
		if err := tm.ApplyTo(path); err != nil {
			t.Fatal(err)
		}
	}
	// The restored clone verifies again — the matrix never compounded.
	if _, err := VerifyAudit(clone, pub); err != nil {
		t.Fatalf("restored clone does not verify: %v", err)
	}
}

// TestAuditTamperMatrixStructural hits each structurally critical field
// with all eight single-bit flips: segment header magic/version/sequence/
// chain link, a mid-segment frame's length, CRC, record-type and payload
// bytes, the final segment's seal, snapshot body and signature, and the
// audit key's own fingerprint surface (flipped public key must fail
// everything).
func TestAuditTamperMatrixStructural(t *testing.T) {
	fixture, pub := auditFixture(t, 1, 14)
	names := segmentNames(t, fixture, walShardPrefix(0))
	if len(names) < 3 {
		t.Fatalf("fixture produced %d segments, want ≥ 3", len(names))
	}
	mid := names[len(names)-2]
	final := names[len(names)-1]
	finalData, err := os.ReadFile(filepath.Join(fixture, "wal", final))
	if err != nil {
		t.Fatal(err)
	}

	cases := []struct {
		name string
		file string // base-name substring for Tamper
		off  int64
	}{
		{"header magic", mid, 0},
		{"header version", mid, 4},
		{"header sequence", mid, 8},
		{"header chain link", mid, int64(walHeaderSize) + 3},
		{"first frame length", mid, int64(walAuditHeaderSize)},
		{"first frame crc", mid, int64(walAuditHeaderSize) + 4},
		{"first frame record type", mid, int64(walAuditHeaderSize) + 8},
		{"first frame payload", mid, int64(walAuditHeaderSize) + 9},
		{"final segment seal tail", final, int64(len(finalData)) - 1},
		{"snapshot body", snapShardPrefix(0), 16},
		{"snapshot attested head", snapShardPrefix(0), 41},
		{"snapshot signature", snapShardPrefix(0), -5},
	}
	for _, tc := range cases {
		for bit := 0; bit < 8; bit++ {
			mask := byte(1) << bit
			clone, name := tamperCopy(t, fixture, testkit.Tamper{Name: tc.file, Off: tc.off, Mask: mask})
			mustDetect(t, clone, pub, name, fmt.Sprintf("%s bit %d", tc.name, bit))
		}
	}
}

// TestAuditTamperMatrixSharded covers the sharded artifacts: one shard's
// WAL bytes, each shard's snapshot, and the manifest — including every
// byte of the manifest (body, per-shard heads, signature, CRC) with one
// bit flip each.
func TestAuditTamperMatrixSharded(t *testing.T) {
	fixture, pub := auditFixture(t, 3, 12)

	// One mid-stream flip per shard stream.
	for k := 0; k < 3; k++ {
		names := segmentNames(t, fixture, walShardPrefix(k))
		target := names[0]
		clone, name := tamperCopy(t, fixture, testkit.Tamper{Name: target, Off: int64(walAuditHeaderSize) + 11, Mask: 0x40})
		mustDetect(t, clone, pub, name, fmt.Sprintf("shard %d WAL", k))

		clone, name = tamperCopy(t, fixture, testkit.Tamper{Name: snapShardPrefix(k), Off: 20, Mask: 0x02})
		mustDetect(t, clone, pub, name, fmt.Sprintf("shard %d snapshot", k))
	}

	// Every byte of the manifest.
	mans, err := listManifests(fixture)
	if err != nil || len(mans) == 0 {
		t.Fatalf("fixture has no manifest: %v", err)
	}
	manName := filepath.Base(mans[0].path)
	manData, err := os.ReadFile(mans[0].path)
	if err != nil {
		t.Fatal(err)
	}
	clone := t.TempDir()
	if err := testkit.CopyTree(fixture, clone); err != nil {
		t.Fatal(err)
	}
	clonePath := filepath.Join(clone, manName)
	for off := int64(0); off < int64(len(manData)); off++ {
		tm := testkit.Tamper{Off: off, Mask: byte(1) << (off % 8)}
		if err := tm.ApplyTo(clonePath); err != nil {
			t.Fatal(err)
		}
		if _, err := VerifyAudit(clone, pub); err == nil {
			t.Fatalf("manifest bit flip at offset %d went undetected", off)
		} else if !errors.Is(err, ErrAuditChainBroken) {
			t.Fatalf("manifest offset %d: %v", off, err)
		}
		if err := tm.ApplyTo(clonePath); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := VerifyAudit(clone, pub); err != nil {
		t.Fatalf("restored clone does not verify: %v", err)
	}
}

// fixupFrameCRC locates the frame containing `find` in segment `path`,
// replaces it with `repl` (same length), and re-stamps the frame's CRC32
// so every pre-audit integrity check accepts the mutated log.
// It returns the frame's offset within the segment.
func fixupFrameCRC(t *testing.T, path string, find, repl string) int64 {
	t.Helper()
	if len(find) != len(repl) {
		t.Fatal("find/repl must be the same length")
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	_, frames, _, ok := parseSegment(data)
	if !ok {
		t.Fatalf("%s: not a parseable segment", filepath.Base(path))
	}
	for _, fr := range frames {
		i := strings.Index(string(fr.payload), find)
		if i < 0 {
			continue
		}
		copy(fr.payload[i:], repl) // fr.payload aliases data
		binary.LittleEndian.PutUint32(data[fr.off+4:fr.off+8], crc32.ChecksumIEEE(fr.payload))
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
		return int64(fr.off)
	}
	t.Fatalf("%s: no frame contains %q", filepath.Base(path), find)
	return 0
}

// TestAuditTamperCRCFixup is the case CRC32 alone cannot catch: an
// adversary rewrites an event inside a sealed frame and re-stamps the
// frame's CRC. The framing layer accepts the segment bit for bit — and
// both the offline verifier and recovery still refuse it, because the
// hash chain committed to the original bytes.
func TestAuditTamperCRCFixup(t *testing.T) {
	fixture, pub := auditFixture(t, 1, 14)
	names := segmentNames(t, fixture, walShardPrefix(0))
	target := names[len(names)-2]

	clone := t.TempDir()
	if err := testkit.CopyTree(fixture, clone); err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(clone, "wal", target)
	// Rewrite one event's device host: same length, valid JSON, valid
	// event — indistinguishable from honest history to everything but the
	// chain.
	off := fixupFrameCRC(t, path, `PC-`, `PD-`)

	// 1. The framing layer itself accepts the tampered segment: every
	// frame parses, CRCs included, and the record decodes. This is the
	// pre-audit trust boundary, and it holds the forged history.
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	_, frames, goodLen, ok := parseSegment(data)
	if !ok || goodLen != len(data) {
		t.Fatalf("tampered segment no longer parses cleanly (goodLen %d of %d) — fixup broke framing", goodLen, len(data))
	}
	for _, fr := range frames {
		if _, err := decodeRecord(fr.payload); err != nil {
			t.Fatalf("tampered frame no longer decodes: %v — fixup broke the record", err)
		}
	}

	// 2. The offline verifier catches it and points at the frame.
	_, verr := VerifyAudit(clone, pub)
	if verr == nil {
		t.Fatal("CRC-fixup tamper went undetected by VerifyAudit")
	}
	if !errors.Is(verr, ErrAuditChainBroken) || !strings.Contains(verr.Error(), target) {
		t.Fatalf("detection not localized to %s: %v", target, verr)
	}
	// Localization: the diagnostic pins a byte offset within the segment
	// (the divergent seal, or an attested head boundary at/after the
	// tampered frame at offset `off`).
	if !strings.Contains(verr.Error(), "offset") {
		t.Fatalf("diagnostic pins no offset (tampered frame at %d): %v", off, verr)
	}

	// 3. Recovery refuses the forged history before applying any of it:
	// Open fail-stops with ErrAuditChainBroken naming the segment, and not
	// one logged day-close of the tail (the forged frame sits behind the
	// day-7 snapshot, with closes before and after it) reached the
	// extractor — the chain is verified by the walk that collects the
	// tail, not after the replay.
	applied := 0
	cfg := persistCfg()
	cfg.IngestorFactory = func(users []string, start cert.Day) (Ingestor, error) {
		ing, err := NewCERTIngestor(users, start)
		return countingConsume{ing, &applied}, err
	}
	p := auditPersist()
	p.Dir = clone
	_, _, err = Open(cfg, p)
	if !errors.Is(err, ErrAuditChainBroken) || !strings.Contains(err.Error(), target) {
		t.Fatalf("recovery over CRC-fixed-up history: %v, want ErrAuditChainBroken naming %s", err, target)
	}
	if applied != 0 {
		t.Fatalf("recovery applied %d day closes before rejecting the forged tail", applied)
	}
}

// countingConsume counts the day-close applies that reach the extractor.
type countingConsume struct {
	*CERTIngestor
	n *int
}

func (c countingConsume) CloseDay(d cert.Day) (int, error) {
	*c.n++
	return c.CERTIngestor.CloseDay(d)
}

// TestAuditTamperSnapshotVsManifestSplice swaps attested state between
// generations: a snapshot signature from one day pasted over another
// day's snapshot must fail (the signature covers the body), and a
// manifest whose CRC is re-stamped after a head edit must still fail on
// its ed25519 signature — the CRC protects against corruption, the
// signature against re-checksummed tampering.
func TestAuditTamperSnapshotVsManifestSplice(t *testing.T) {
	fixture, pub := auditFixture(t, 3, 12)
	mans, err := listManifests(fixture)
	if err != nil || len(mans) == 0 {
		t.Fatal("fixture has no manifest")
	}
	manName := filepath.Base(mans[0].path)
	manData, err := os.ReadFile(mans[0].path)
	if err != nil {
		t.Fatal(err)
	}

	// Flip one bit inside a pinned per-shard head, then re-stamp the CRC:
	// decodeManifest's checksum passes, the signature does not.
	clone := t.TempDir()
	if err := testkit.CopyTree(fixture, clone); err != nil {
		t.Fatal(err)
	}
	forged := append([]byte(nil), manData...)
	// Heads live between the fixed prefix and the trailer; flip a byte
	// comfortably inside the first head's bytes.
	headOff := int64(4 + 4 + 8 + 8 + 8 + 8 + 4) // magic,ver,shards,day,hwm,len-prefix,into head
	forged[headOff] ^= 0x10
	body := forged[:len(forged)-4]
	binary.LittleEndian.PutUint32(forged[len(forged)-4:], crc32.ChecksumIEEE(body))
	if err := os.WriteFile(filepath.Join(clone, manName), forged, 0o644); err != nil {
		t.Fatal(err)
	}
	if m, err := decodeManifest(forged); err != nil {
		t.Fatalf("re-stamped manifest should pass the CRC layer, got: %v", err)
	} else if m.verifySig(pub) {
		t.Fatal("forged manifest passed signature verification")
	}
	mustDetect(t, clone, pub, manName, "re-checksummed manifest head")

	// Splice: shard 0's snapshot copied over shard 1's. Each file is
	// individually signed and internally consistent — only the manifest
	// cross-check (and the chain walk) can notice the swap.
	snaps0, err := listSnapshots(fixture, snapShardPrefix(0))
	if err != nil || len(snaps0) == 0 {
		t.Fatal("no shard-0 snapshot")
	}
	snaps1, err := listSnapshots(fixture, snapShardPrefix(1))
	if err != nil || len(snaps1) == 0 {
		t.Fatal("no shard-1 snapshot")
	}
	clone2 := t.TempDir()
	if err := testkit.CopyTree(fixture, clone2); err != nil {
		t.Fatal(err)
	}
	src, err := os.ReadFile(snaps0[0].path)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(clone2, filepath.Base(snaps1[0].path)), src, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := VerifyAudit(clone2, pub); !errors.Is(err, ErrAuditChainBroken) {
		t.Fatalf("spliced snapshot went undetected: %v", err)
	}
}

// TestAuditTamperShardedPreManifest pins the layout autodetection on a
// sharded directory that was shut down before its first snapshot round:
// with no manifest to pin the shard count, VerifyAudit must still find
// the per-shard WAL streams from their filenames — an early bug made it
// fall back to the unsharded name pattern and "verify" an empty set,
// passing tampered directories. A flipped byte must be detected, and a
// smuggled segment file no stream claims must refuse verification too.
func TestAuditTamperShardedPreManifest(t *testing.T) {
	dir := t.TempDir()
	cfg := persistCfg()
	cfg.Shards = 3
	p := auditPersist()
	p.Dir = dir
	p.SnapshotEvery = 1 << 20 // never: the directory stays manifest-less
	s, _, err := Open(cfg, p)
	if err != nil {
		t.Fatal(err)
	}
	feedDaysProvable(t, s, 0, 5)
	pub := append(ed25519.PublicKey(nil), s.auditPub()...)
	shutdown(t, s)
	if mans, err := listManifests(dir); err != nil || len(mans) != 0 {
		t.Fatalf("fixture grew a manifest (%d, %v); the pre-manifest case is vacuous", len(mans), err)
	}

	rep, err := VerifyAudit(dir, pub)
	if err != nil {
		t.Fatalf("pristine pre-manifest sharded dir does not verify: %v", err)
	}
	if rep.Shards != 3 || rep.Segments == 0 || rep.Batches == 0 {
		t.Fatalf("walk covered too little: %+v", rep)
	}

	names := segmentNames(t, dir, walShardPrefix(1))
	clone, target := tamperCopy(t, dir, testkit.Tamper{
		Name: names[0], Off: int64(walAuditHeaderSize + 9), Mask: 0x10,
	})
	mustDetect(t, clone, pub, target, "pre-manifest shard-1 WAL flip")

	// A segment under a shard index no stream owns must not be skipped.
	clone2 := t.TempDir()
	if err := testkit.CopyTree(dir, clone2); err != nil {
		t.Fatal(err)
	}
	smuggled := filepath.Join(clone2, "wal", "wal-shard7-00000001.log")
	if err := os.WriteFile(smuggled, []byte("not history"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := VerifyAudit(clone2, pub); !errors.Is(err, ErrAuditChainBroken) ||
		err == nil || !strings.Contains(err.Error(), "wal-shard7-00000001.log") {
		t.Fatalf("smuggled segment went undetected: %v", err)
	}
}
