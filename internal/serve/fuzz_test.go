package serve

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"errors"
	"math"
	"os"
	"testing"
	"time"

	"acobe/internal/audit"
	"acobe/internal/cert"
)

// fuzzSegmentSeed builds a small valid segment image for the fuzz corpus.
func fuzzSegmentSeed() []byte {
	var buf bytes.Buffer
	var hdr [walHeaderSize]byte
	copy(hdr[:4], walMagic)
	binary.LittleEndian.PutUint32(hdr[4:8], walVersion)
	binary.LittleEndian.PutUint64(hdr[8:16], 1)
	buf.Write(hdr[:])
	evs := []Event{{Cert: &cert.Event{
		Type: cert.EventLogon, Time: time.Date(2010, 1, 4, 9, 0, 0, 0, time.UTC),
		User: "u1", Activity: cert.ActLogon,
	}}}
	body, _ := json.Marshal(evs)
	buf.Write(encodeFrame(append([]byte{recEvents}, body...)))
	var cp [9]byte
	cp[0] = recClose
	binary.LittleEndian.PutUint64(cp[1:], 2)
	buf.Write(encodeFrame(cp[:]))
	return buf.Bytes()
}

// fuzzShardSegmentSeed builds a segment image holding a cross-shard batch
// part (the sharded server's WAL shape) for the fuzz corpus.
func fuzzShardSegmentSeed() []byte {
	var buf bytes.Buffer
	var hdr [walHeaderSize]byte
	copy(hdr[:4], walMagic)
	binary.LittleEndian.PutUint32(hdr[4:8], walVersion)
	binary.LittleEndian.PutUint64(hdr[8:16], 1)
	buf.Write(hdr[:])
	evs := []Event{{Cert: &cert.Event{
		Type: cert.EventLogon, Time: time.Date(2010, 1, 4, 9, 0, 0, 0, time.UTC),
		User: "u1", Activity: cert.ActLogon,
	}}}
	payload, _, _ := encodePartPayload(7, 3, evs)
	buf.Write(encodeFrame(payload))
	empty, _, _ := encodePartPayload(8, 2, nil) // fully late-filtered slice: "[]"
	buf.Write(encodeFrame(empty))
	return buf.Bytes()
}

// fuzzAuditSegmentSeed builds an audited (version-2) segment image: the
// wider header carrying a previous chain head, an events frame, and a
// seal frame — the stream shape PersistConfig.Audit writes.
func fuzzAuditSegmentSeed() []byte {
	var buf bytes.Buffer
	var hdr [walAuditHeaderSize]byte
	copy(hdr[:4], walMagic)
	binary.LittleEndian.PutUint32(hdr[4:8], walAuditVersion)
	binary.LittleEndian.PutUint64(hdr[8:16], 2)
	for i := walHeaderSize; i < walAuditHeaderSize; i++ {
		hdr[i] = byte(i)
	}
	buf.Write(hdr[:])
	evs := []Event{{Cert: &cert.Event{
		Type: cert.EventLogon, Time: time.Date(2010, 1, 4, 9, 0, 0, 0, time.UTC),
		User: "u1", Activity: cert.ActLogon,
	}}}
	body, _ := json.Marshal(evs)
	buf.Write(encodeFrame(append([]byte{recEvents}, body...)))
	seal := audit.Seal{Seq: 2, Frames: 1}
	seal.Head[0] = 0xA5
	buf.Write(encodeFrame(append([]byte{recSeal}, seal.Encode()...)))
	return buf.Bytes()
}

// FuzzWALDecode throws arbitrary bytes at the WAL segment parser, the record
// decoder and the stream walker — the exact code path recovery runs over
// whatever a crash left on disk. Nothing may panic or over-allocate, and
// the parse must be self-consistent: frames contiguous from the header,
// the valid prefix a fixpoint (re-parsing it yields the same frames),
// every framing-valid payload either decodes or errors cleanly, and a
// tolerant walk of a directory holding the input as its one segment
// visits exactly the decodable prefix of those frames.
func FuzzWALDecode(f *testing.F) {
	seed := fuzzSegmentSeed()
	f.Add(seed)
	f.Add(seed[:len(seed)-5])          // torn tail
	f.Add(seed[:walHeaderSize])        // header only
	f.Add(seed[:walHeaderSize/2])      // torn header
	f.Add([]byte{})                    // empty file
	f.Add([]byte("ACWL garbage here")) // magic then junk
	flipped := bytes.Clone(seed)
	flipped[len(flipped)/2] ^= 0xff
	f.Add(flipped) // bit rot mid-frame
	huge := bytes.Clone(seed[:walHeaderSize+8])
	binary.LittleEndian.PutUint32(huge[walHeaderSize:], 1<<30)
	f.Add(huge) // oversized length prefix
	shardSeed := fuzzShardSegmentSeed()
	f.Add(shardSeed)                    // multi-shard batch parts
	f.Add(shardSeed[:len(shardSeed)-7]) // torn part frame
	// A CRC-valid frame declaring zero parts: framing passes, decode must
	// report corruption.
	badPart, _, _ := encodePartPayload(7, 3, nil)
	binary.LittleEndian.PutUint32(badPart[9:13], 0)
	zeroParts := append(bytes.Clone(shardSeed[:walHeaderSize]), encodeFrame(badPart)...)
	f.Add(zeroParts)
	auditSeed := fuzzAuditSegmentSeed()
	f.Add(auditSeed)                        // audited (v2) stream shape
	f.Add(auditSeed[:walAuditHeaderSize])   // audited header only
	f.Add(auditSeed[:walAuditHeaderSize-3]) // torn audited header
	// A fully late-filtered part as plain streams wrote it before the part
	// encoders were merged: a JSON null where shardSeed now holds "[]".
	nullPart := append(badPart[:partHeaderSize:partHeaderSize], "null"...)
	binary.LittleEndian.PutUint32(nullPart[9:13], 2)
	f.Add(append(bytes.Clone(shardSeed[:walHeaderSize]), encodeFrame(nullPart)...))
	f.Fuzz(func(t *testing.T, data []byte) {
		seq, frames, goodLen, hdrOK := parseSegment(data)
		fuzzWalk(t, data)
		if !hdrOK {
			if len(frames) != 0 || goodLen != 0 {
				t.Fatalf("invalid header but frames=%d goodLen=%d", len(frames), goodLen)
			}
			return
		}
		// The header length depends on the parsed version: 16 bytes for
		// version 1, 48 (with the previous chain head) for audited
		// version-2 streams.
		_, _, _, hdrLen, ok := parseSegHeader(data)
		if !ok || (hdrLen != walHeaderSize && hdrLen != walAuditHeaderSize) {
			t.Fatalf("parseSegment accepted a header parseSegHeader rejects (ok=%v hdrLen=%d)", ok, hdrLen)
		}
		if goodLen < hdrLen || goodLen > len(data) {
			t.Fatalf("goodLen %d outside [header=%d, len(data)=%d]", goodLen, hdrLen, len(data))
		}
		end := hdrLen
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
				case recEvents, recClose, recSeal, recReceipt:
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
// recovery does. The walk must not panic; it visits a prefix of
// parseSegment's frames, every one decodable; and unless an audited input's
// chain checks stop it (seals, receipts — nothing a plain stream has), it
// stops exactly at the first frame that does not decode and reports the
// bytes before it as the log.
func fuzzWalk(t *testing.T, data []byte) {
	seq, frames, goodLen, hdrOK := parseSegment(data)
	o := walkOpts{}
	if !hdrOK {
		seq = 1 // a header that never finished: the crash-during-rotation shape
	} else {
		if seq > math.MaxInt64 {
			return // no file name carries it
		}
		// Anchor the walk at the header so any sequence number may start
		// the stream.
		_, audited, _, hdrLen, _ := parseSegHeader(data)
		o = walkOpts{audited: audited, from: &walPos{seg: seq, off: int64(hdrLen)}}
	}
	dir := t.TempDir()
	prefix := walShardPrefix(0)
	if err := os.WriteFile(walSegPath(dir, prefix, seq), data, 0o644); err != nil {
		t.Fatal(err)
	}
	visited := 0
	end, err := walkStream(dir, prefix, o, func(f *walkedFrame) error {
		if visited >= len(frames) || f.pos != (walPos{seg: seq, off: int64(frames[visited].off)}) {
			t.Fatalf("walk visited a frame at %+v, not frame %d of the parse", f.pos, visited)
		}
		if _, derr := decodeRecord(frames[visited].payload); derr != nil {
			t.Fatalf("walk visited frame %d, which does not decode: %v", visited, derr)
		}
		visited++
		return nil
	})
	if err != nil {
		if !o.audited || !errors.Is(err, ErrAuditChainBroken) {
			t.Fatalf("tolerant walk of one final segment failed: %v", err)
		}
		return
	}
	want := goodLen
	if visited < len(frames) {
		if _, derr := decodeRecord(frames[visited].payload); derr == nil {
			t.Fatalf("walk stopped after %d of %d frames, but frame %d decodes", visited, len(frames), visited)
		}
		want = frames[visited].off
	}
	if end.segments != 1 || end.seq != seq || end.size != int64(len(data)) || end.goodLen != int64(want) {
		t.Fatalf("walk ended at %+v, want one segment %d of %d bytes with %d valid", end, seq, len(data), want)
	}
}
