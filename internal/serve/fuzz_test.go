package serve

import (
	"bytes"
	"context"
	"encoding/binary"
	"encoding/hex"
	"errors"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"testing"
	"time"

	"acobe/internal/audit"
	"acobe/internal/cert"
)

// fuzzSegmentSeed builds a small valid segment image for the fuzz corpus:
// the first segment of a stream, holding an events frame and a close frame.
func fuzzSegmentSeed() []byte {
	var buf bytes.Buffer
	buf.Write(encodeSegHeader(1, audit.Head{}))
	evs := []Event{{Cert: &cert.Event{
		Type: cert.EventLogon, Time: time.Date(2010, 1, 4, 9, 0, 0, 0, time.UTC),
		User: "u1", Activity: cert.ActLogon,
	}}}
	payload, _, _ := encodePartPayload(1, 1, evs)
	buf.Write(encodeFrame(payload))
	var cp [9]byte
	cp[0] = recClose
	binary.LittleEndian.PutUint64(cp[1:], 2)
	buf.Write(encodeFrame(cp[:]))
	return buf.Bytes()
}

// fuzzShardSegmentSeed builds a later segment of a stream — a header
// linking a previous chain head — holding cross-shard batch parts and a
// seal, for the fuzz corpus.
func fuzzShardSegmentSeed() []byte {
	var buf bytes.Buffer
	var link audit.Head
	for i := range link {
		link[i] = byte(i)
	}
	buf.Write(encodeSegHeader(2, link))
	evs := []Event{{Cert: &cert.Event{
		Type: cert.EventLogon, Time: time.Date(2010, 1, 4, 9, 0, 0, 0, time.UTC),
		User: "u1", Activity: cert.ActLogon,
	}}}
	payload, _, _ := encodePartPayload(7, 3, evs)
	buf.Write(encodeFrame(payload))
	empty, _, _ := encodePartPayload(8, 2, nil) // fully late-filtered slice: "[]"
	buf.Write(encodeFrame(empty))
	seal := audit.Seal{Seq: 2, Frames: 2}
	seal.Head[0] = 0xA5
	buf.Write(encodeFrame(append([]byte{recSeal}, seal.Encode()...)))
	return buf.Bytes()
}

// fuzzRetiredSegmentSeed builds a segment of the retired plain form: a
// 16-byte version-1 header with no chain link, then a close frame.
func fuzzRetiredSegmentSeed() []byte {
	img := binary.LittleEndian.AppendUint32([]byte(walMagic), 1)
	img = binary.LittleEndian.AppendUint64(img, 1)
	var cp [9]byte
	cp[0] = recClose
	return append(img, encodeFrame(cp[:])...)
}

// FuzzWALDecode throws arbitrary bytes at the WAL segment parser, the record
// decoder and the stream walker — the exact code path recovery runs over
// whatever a crash left on disk. Nothing may panic or over-allocate, and
// the parse must be self-consistent: frames contiguous from the header,
// the valid prefix a fixpoint (re-parsing it yields the same frames),
// every framing-valid payload either decodes or errors cleanly, and a
// tolerant walk of a directory holding the input as its one segment
// either visits every one of those frames or refuses the first that does
// not decode, by segment and offset — or, for a header of another
// version, refuses the segment by name before any frame.
func FuzzWALDecode(f *testing.F) {
	seed := fuzzSegmentSeed()
	f.Add(seed)
	f.Add(seed[:len(seed)-5])          // torn tail
	f.Add(seed[:walHeaderSize])        // header only
	f.Add(seed[:walHeaderSize-3])      // torn header
	f.Add([]byte{})                    // empty file
	f.Add([]byte("ACWL garbage here")) // magic then junk
	flipped := bytes.Clone(seed)
	flipped[len(flipped)/2] ^= 0xff
	f.Add(flipped) // bit rot mid-frame
	huge := bytes.Clone(seed[:walHeaderSize+8])
	binary.LittleEndian.PutUint32(huge[walHeaderSize:], 1<<30)
	f.Add(huge) // oversized length prefix
	shardSeed := fuzzShardSegmentSeed()
	f.Add(shardSeed)                    // multi-shard batch parts and a seal
	f.Add(shardSeed[:len(shardSeed)-7]) // torn seal frame
	f.Add(shardSeed[:walHeaderSize])    // a later segment's header only
	// A CRC-valid frame declaring zero parts: framing passes, decode must
	// report corruption.
	badPart, _, _ := encodePartPayload(7, 3, nil)
	binary.LittleEndian.PutUint32(badPart[9:13], 0)
	f.Add(append(bytes.Clone(seed[:walHeaderSize]), encodeFrame(badPart)...))
	// A fully late-filtered part as plain streams once wrote it: a JSON null
	// where shardSeed holds "[]".
	nullPart := append(badPart[:partHeaderSize:partHeaderSize], "null"...)
	binary.LittleEndian.PutUint32(nullPart[9:13], 2)
	f.Add(append(bytes.Clone(seed[:walHeaderSize]), encodeFrame(nullPart)...))
	retired := fuzzRetiredSegmentSeed()
	f.Add(retired)     // the retired version 1
	f.Add(retired[:8]) // the retired version, cut after its version field
	f.Fuzz(func(t *testing.T, data []byte) {
		seq, frames, goodLen, hdrOK := parseSegment(data)
		fuzzWalk(t, data)
		if !hdrOK {
			if len(frames) != 0 || goodLen != 0 {
				t.Fatalf("invalid header but frames=%d goodLen=%d", len(frames), goodLen)
			}
			return
		}
		if _, _, err := parseSegHeader(data); err != nil {
			t.Fatalf("parseSegment accepted a header parseSegHeader rejects: %v", err)
		}
		if goodLen < walHeaderSize || goodLen > len(data) {
			t.Fatalf("goodLen %d outside [header=%d, len(data)=%d]", goodLen, walHeaderSize, len(data))
		}
		end := walHeaderSize
		for _, fr := range frames {
			if fr.off != end {
				t.Fatalf("frame at offset %d, expected contiguous at %d", fr.off, end)
			}
			if len(fr.payload) == 0 || len(fr.payload) > maxWALRecord {
				t.Fatalf("frame payload of %d bytes escaped the caps", len(fr.payload))
			}
			end += 8 + len(fr.payload)
			if rec, err := decodeRecord(fr.payload); err == nil {
				switch rec.typ {
				case recClose, recSeal, recReceipt:
				case recEventsPart:
					if rec.parts == 0 {
						t.Fatal("decoded a part record declaring zero parts")
					}
				default:
					t.Fatalf("decoded record of unknown type %d", rec.typ)
				}
			}
		}
		if end != goodLen {
			t.Fatalf("frames span to %d but goodLen is %d", end, goodLen)
		}
		seq2, frames2, goodLen2, hdrOK2 := parseSegment(data[:goodLen])
		if !hdrOK2 || seq2 != seq || goodLen2 != goodLen || len(frames2) != len(frames) {
			t.Fatalf("valid prefix is not a parse fixpoint: (%d,%d,%v) vs (%d,%d,%v)",
				len(frames), goodLen, hdrOK, len(frames2), goodLen2, hdrOK2)
		}
		for i := range frames {
			if !bytes.Equal(frames[i].payload, frames2[i].payload) {
				t.Fatalf("re-parse changed frame %d payload", i)
			}
		}
	})
}

// fuzzWalk writes data as the one segment of a stream and walks it the way
// recovery does. The walk must not panic, and it never takes a frame that
// passed framing for a torn tail: it visits a prefix of parseSegment's
// frames, every one decodable; it fails, naming the segment and the offset
// of the first frame that does not decode, exactly when there is one; and
// otherwise it visits every frame and reports parseSegment's valid prefix
// as the log. Only the chain's own checks (seals, receipts, a first
// segment's header linking a nonzero head) may stop it earlier. A header of another version is refused by
// the segment's name before any frame is visited; one cut short is the
// crash-during-rotation shape, tolerated as the final segment.
func fuzzWalk(t *testing.T, data []byte) {
	seq, frames, goodLen, hdrOK := parseSegment(data)
	_, link, herr := parseSegHeader(data)
	var o walkOpts
	if !hdrOK {
		seq = 1
	} else {
		if seq > math.MaxInt64 {
			return // no file name carries it
		}
		// Anchor the walk at the header so any sequence number may start
		// the stream.
		o.from = &walPos{seg: seq, off: walHeaderSize}
	}
	dir := t.TempDir()
	prefix := walShardPrefix(0)
	name := filepath.Base(walSegPath(dir, prefix, seq))
	if err := os.WriteFile(walSegPath(dir, prefix, seq), data, 0o644); err != nil {
		t.Fatal(err)
	}
	bad := slices.IndexFunc(frames, func(fr walFrame) bool {
		_, derr := decodeRecord(fr.payload)
		return derr != nil
	})
	visited := 0
	end, err := walkStream(dir, prefix, o, func(f *walkedFrame) error {
		if visited >= len(frames) || f.pos != (walPos{seg: seq, off: int64(frames[visited].off)}) {
			t.Fatalf("walk visited a frame at %+v, not frame %d of the parse", f.pos, visited)
		}
		if visited == bad {
			t.Fatalf("walk visited frame %d, which does not decode", visited)
		}
		visited++
		return nil
	})
	switch {
	case herr != nil && herr != errTornHeader:
		if err == nil || !strings.Contains(err.Error(), name+": segment version") {
			t.Fatalf("walk of a header of another version: %v, want it refused naming %s", err, name)
		}
	case err == nil:
		if bad >= 0 {
			t.Fatalf("walk passed frame %d, which does not decode", bad)
		}
		if end.segments != 1 || end.seq != seq || end.size != int64(len(data)) || end.goodLen != int64(goodLen) {
			t.Fatalf("walk ended at %+v, want one segment %d of %d bytes with %d valid", end, seq, len(data), goodLen)
		}
	case bad >= 0 && visited == bad && (seq != 1 || link == audit.Head{}):
		// The header's link held (a first segment links the zero head), so
		// nothing but the undecodable frame could stop the walk here.
		where := fmt.Sprintf("%s offset %d: ", name, frames[bad].off)
		if !strings.Contains(err.Error(), where) {
			t.Fatalf("walk refused frame %d with %v, which does not name %q", bad, err, where)
		}
	case !errors.Is(err, ErrAuditChainBroken):
		t.Fatalf("walk of one final segment failed before any undecodable frame: %v", err)
	}
}

// fuzzSnapshotSeed writes a real snapshot of two users without groups —
// two closed days and a third day still open at the cut, signed with
// fuzzManifestKey — and returns its image and the stopped server that
// wrote it.
func fuzzSnapshotSeed(f *testing.F) ([]byte, *Server) {
	f.Helper()
	pc := PersistConfig{Dir: f.TempDir(), SnapshotEvery: 2}
	seed := hex.EncodeToString(fuzzManifestKey.Seed()) + "\n"
	if err := os.WriteFile(filepath.Join(pc.Dir, audit.KeyFileName), []byte(seed), 0o600); err != nil {
		f.Fatal(err)
	}
	cfg := persistCfg()
	cfg.Users, cfg.Groups, cfg.Membership = testUsers[:2], nil, nil
	srv, _, err := Open(cfg, pc)
	if err != nil {
		f.Fatal(err)
	}
	ctx := context.Background()
	err = feedUserDays(srv, 0, 0)
	if err == nil {
		err = srv.Submit(ctx, append(userDayEvents(cfg.Users, 1), userDayEvents(cfg.Users, 2)...))
	}
	if err == nil {
		err = srv.CloseDay(ctx, 1) // the cut, with day 2 open
	}
	if err == nil {
		err = srv.Shutdown(ctx)
	}
	if err != nil {
		f.Fatal(err)
	}
	img, err := os.ReadFile(snapPath(pc.Dir, snapShardPrefix(0), 1))
	if err != nil {
		f.Fatal(err)
	}
	return img, srv
}

// FuzzSnapshotFile runs readSnapshot, the one reader of a snapshot's bytes,
// in both of its modes over each input: loading the state into a fresh
// shard (recovery) and draining it unread (the offline verifier). Neither
// may panic. The verifier accepts whatever the loader accepts, with the
// same header, and refuses whatever the loader refuses at the checksum,
// the signature or the end of the file.
func FuzzSnapshotFile(f *testing.F) {
	good, srv := fuzzSnapshotSeed(f)
	pub := srv.auditPub()
	if _, err := readSnapshot(newSnapStream(bytes.NewReader(good), int64(len(good))), pub, drainState); err != nil {
		f.Fatalf("the seed snapshot does not verify: %v", err)
	}
	f.Add(good)
	f.Add(good[:len(good)-1])               // torn signature
	f.Add(good[:len(good)-audit.SigSize-2]) // torn checksum
	f.Add(good[:len(good)/2])               // torn state
	f.Add(good[:20])                        // torn header
	f.Add([]byte{})
	f.Add(append(bytes.Clone(good), 0))       // one byte appended
	f.Add(append(bytes.Clone(good), good...)) // the file twice
	for _, off := range []int{5, 30, len(good) / 2, len(good) - audit.SigSize - 2, len(good) - 1} {
		flipped := bytes.Clone(good)
		flipped[off] ^= 0x10
		f.Add(flipped)
	}
	tail := func(err error) bool {
		return err != nil && (strings.Contains(err.Error(), "snapshot checksum") ||
			strings.Contains(err.Error(), "snapshot signature") || strings.Contains(err.Error(), "trailing bytes"))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		fresh, err := newCore(srv.cfg)
		if err != nil {
			t.Fatal(err)
		}
		srv.adoptCore(fresh)
		lh, lerr := readSnapshot(newSnapStream(bytes.NewReader(data), int64(len(data))), pub, func(cr *snapStream) error {
			return srv.decodeSnapshot(cr, srv.shards[0])
		})
		vh, verr := readSnapshot(newSnapStream(bytes.NewReader(data), int64(len(data))), pub, drainState)
		switch {
		case lerr == nil && (verr != nil || vh != lh):
			t.Fatalf("the loader accepts header %+v, the verifier %+v: %v", lh, vh, verr)
		case tail(lerr) && verr == nil:
			t.Fatalf("the verifier accepts what the loader refuses: %v", lerr)
		}
	})
}
