package serve

import (
	"bytes"
	"crypto/ed25519"
	"crypto/sha256"
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"path/filepath"
	"slices"

	"acobe/internal/audit"
	"acobe/internal/cert"
	"acobe/internal/persist"
)

// A manifest pins one consistent snapshot cut across the shards:
// manifest-<day>.mf says "every shard published snapshot-shard<k>-<day>
// for this barrier". It is written strictly after all shard snapshots are
// durable, so recovery can trust that a manifest's referenced snapshots
// exist (a missing or corrupt one falls back a generation, and a cut with
// no loadable generation fails loudly). Each shard snapshot carries its
// own WAL position; the cut is consistent because every shard's state was
// captured at the same closed-through barrier with no closes in between.
// The manifest additionally records the cross-shard batch-ID high-water
// mark at the cut, so a restart over empty WAL tails resumes numbering
// past every ID already baked behind the snapshot positions instead of
// reissuing them (a reissued ID would collide with the stale frames the
// moment a later recovery falls back a generation and scans both).
//
//	"ACMF" | version u32 LE | shard count | day i64 | batch HWM u64 |
//	per-shard chain head, length-prefixed ×shards |
//	"ACMF" trailer | ed25519 sig over SHA-256(body) | crc32
//
// The chain heads are every shard's WAL chain head at the cut (each equal
// to the same-day shard snapshot's attested head); the trailing CRC32
// covers body and signature both.
const (
	manifestMagic = "ACMF"
	// manifestVersion is the one manifest form. Version 1, the unsigned
	// form with no chain heads, is refused by number.
	manifestVersion = 2
	manifestPrefix  = "manifest-"
	manifestSuffix  = ".mf"
)

func manifestPath(dir string, day cert.Day) string {
	return filepath.Join(dir, fmt.Sprintf("%s%08d%s", manifestPrefix, int64(day), manifestSuffix))
}

// listManifests returns the published manifests, newest first.
func listManifests(dir string) ([]dirFile, error) {
	out, err := listStream(dir, manifestPrefix, manifestSuffix)
	slices.Reverse(out)
	return out, err
}

// manifestInfo is one decoded manifest.
type manifestInfo struct {
	shards   int
	day      cert.Day
	batchHWM uint64
	heads    []audit.Head
	sig      [audit.SigSize]byte
	// signed is the exact body span the signature covers (aliases the file
	// image).
	signed []byte
}

// verifySig checks the manifest's signature.
func (m *manifestInfo) verifySig(pub ed25519.PublicKey) bool {
	d := sha256.Sum256(m.signed)
	return audit.VerifyContext(pub, m.sig, audit.ContextManifest, d[:])
}

// decodeManifest parses a manifest image. The trailing 4 bytes are the
// CRC32 of everything before them (body plus signature).
func decodeManifest(data []byte) (m manifestInfo, err error) {
	if len(data) < 4+8 {
		return m, fmt.Errorf("serve: manifest too short for checksum")
	}
	body, stored := data[:len(data)-4], binary.LittleEndian.Uint32(data[len(data)-4:])
	if got := crc32.ChecksumIEEE(body); got != stored {
		return m, fmt.Errorf("serve: manifest checksum mismatch (stored %08x, computed %08x)", stored, got)
	}
	if v := binary.LittleEndian.Uint32(body[4:8]); v != manifestVersion {
		return m, fmt.Errorf("serve: manifest version %d unsupported (this build reads version %d only)", v, manifestVersion)
	}
	if len(body) < audit.SigSize {
		return m, fmt.Errorf("serve: manifest too short for signature")
	}
	m.signed = body[:len(body)-audit.SigSize]
	copy(m.sig[:], body[len(body)-audit.SigSize:])
	pr := persist.NewReader(bytes.NewReader(m.signed))
	pr.Magic(manifestMagic)
	m.shards = pr.Int()
	m.day = cert.Day(pr.I64())
	m.batchHWM = pr.U64()
	if pr.Err() == nil && (m.shards < 1 || m.shards > 1<<16) {
		return m, fmt.Errorf("serve: manifest declares %d shards", m.shards)
	}
	if pr.Err() == nil {
		m.heads = make([]audit.Head, m.shards)
	}
	for k := 0; k < m.shards && pr.Err() == nil; k++ {
		hb := pr.Bytes()
		if pr.Err() == nil && len(hb) != audit.HeadSize {
			return m, fmt.Errorf("serve: manifest shard %d head is %d bytes, want %d", k, len(hb), audit.HeadSize)
		}
		copy(m.heads[k][:], hb)
	}
	if v := pr.Magic(manifestMagic); pr.Err() == nil && v != manifestVersion {
		return m, fmt.Errorf("serve: manifest trailer version %d unsupported", v)
	}
	if err := pr.Err(); err != nil {
		return m, err
	}
	return m, nil
}

// writeManifest publishes the manifest for a snapshot cut at day. The
// shard snapshots it references are already durable.
func (s *Server) writeManifest(day cert.Day) error {
	// Batch-ID high-water mark: every part frame behind this cut's shard
	// WAL positions carries an ID allocated before those positions were
	// recorded, hence ≤ nextBatch here (IDs are monotonic and this runs
	// after every shard acked its snapshot). Recovery seeds numbering from
	// it so a restart over empty tails never reissues a baked-in ID.
	m := manifestInfo{shards: len(s.shards), day: day, batchHWM: s.nextBatch.Load()}
	// Pin every shard's chain head at this cut. Each equals the attested
	// head inside the same-day shard snapshot; the manifest cross-signs them
	// so a tampered snapshot and a tampered manifest must agree to go
	// unnoticed — and both carry signatures over their own bodies.
	for _, sh := range s.shards {
		m.heads = append(m.heads, sh.snapHead)
	}
	return publishManifest(s.fs, s.pcfg.Dir, m, s.auditPriv)
}

// encodeManifest is the manifest image of m, signed with priv; m.heads
// holds one attested chain head per shard.
func encodeManifest(m manifestInfo, priv ed25519.PrivateKey) ([]byte, error) {
	var body bytes.Buffer
	pw := persist.NewWriter(&body)
	pw.Magic(manifestMagic, manifestVersion)
	pw.Int(m.shards)
	pw.I64(int64(m.day))
	pw.U64(m.batchHWM)
	for _, h := range m.heads {
		pw.Bytes(h[:])
	}
	pw.Magic(manifestMagic, manifestVersion)
	if err := pw.Err(); err != nil {
		return nil, err
	}
	d := sha256.Sum256(body.Bytes())
	sig := audit.SignContext(priv, audit.ContextManifest, d[:])
	body.Write(sig[:])
	return binary.LittleEndian.AppendUint32(body.Bytes(), crc32.ChecksumIEEE(body.Bytes())), nil
}

// publishManifest encodes m and publishes it atomically (tmp + fsync +
// rename + directory fsync).
func publishManifest(fs persistFS, dir string, m manifestInfo, priv ed25519.PrivateKey) error {
	img, err := encodeManifest(m, priv)
	if err != nil {
		return err
	}
	final := manifestPath(dir, m.day)
	tmp := final + ".tmp"
	f, err := fs.create(tmp)
	if err != nil {
		return err
	}
	_, err = f.Write(img)
	if err == nil {
		err = f.Sync()
	}
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		_ = fs.remove(tmp) // best effort; recovery ignores .tmp files anyway
		return err
	}
	if err := fs.rename(tmp, final); err != nil {
		return err
	}
	return fs.syncDir(dir)
}

// prune removes manifests beyond the retention count, shard snapshots no
// retained manifest references, per-shard WAL segments no retained shard
// snapshot needs, and the proof-index entries pointing into those
// segments — the live proof horizon is the retained log, exactly what a
// restart rebuilds. Runs after the new manifest is published, so a crash
// mid-prune only leaves extra files behind.
func (s *Server) prune() error {
	mans, err := listManifests(s.pcfg.Dir)
	if err != nil {
		return err
	}
	retained := make(map[int64]bool, snapRetain)
	for i, m := range mans {
		if i >= snapRetain {
			if err := s.fs.remove(m.path); err != nil {
				return err
			}
			continue
		}
		retained[m.num] = true
	}
	walDir := filepath.Join(s.pcfg.Dir, "wal")
	minSeg := make([]uint64, len(s.shards))
	for k := range s.shards {
		snaps, err := listSnapshots(s.pcfg.Dir, snapShardPrefix(k))
		if err != nil {
			return err
		}
		// minSeg[k] is the oldest WAL segment any retained generation of
		// this shard still needs; an unreadable (or unexpectedly absent)
		// retained snapshot pins the whole log (recovery may fall back to
		// it, or past it to a full replay).
		minSeg[k] = 1 << 62
		kept := 0
		for _, e := range snaps {
			if !retained[e.num] {
				if err := s.fs.remove(e.path); err != nil {
					return err
				}
				continue
			}
			kept++
			h, err := readSnapHeader(e.path)
			if err != nil {
				h.pos.seg = 0
			}
			minSeg[k] = min(minSeg[k], h.pos.seg)
		}
		if kept < len(retained) {
			minSeg[k] = 0
		}
		segs, err := listSegments(walDir, walShardPrefix(k))
		if err != nil {
			return err
		}
		for _, sf := range segs {
			if uint64(sf.num) < minSeg[k] {
				if err := s.fs.remove(sf.path); err != nil {
					return err
				}
			}
		}
	}
	s.auditMu.Lock()
	for id, parts := range s.auditIdx {
		parts = slices.DeleteFunc(parts, func(p partAudit) bool { return p.pos.seg < minSeg[p.shard] })
		if len(parts) == 0 {
			delete(s.auditIdx, id)
		} else {
			s.auditIdx[id] = parts
		}
	}
	s.auditMu.Unlock()
	return nil
}
