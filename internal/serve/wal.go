package serve

import (
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"hash/crc32"
	"path/filepath"
	"sync"
	"time"

	"acobe/internal/audit"
	"acobe/internal/cert"
	"acobe/internal/obs"
)

// Write-ahead log format. A WAL is a directory of segment files
// wal-shard<k>-<seq>.log — each shard appends to its own segment stream —
// each:
//
//	header  "ACWL" | version u32 LE | seq u64 LE | link [32]   (48 bytes)
//	frame*  len u32 LE | crc32(payload) u32 LE | payload
//
// where link is the sealed SHA-256 chain head of the previous segment
// (zero for the first segment of a stream), so the hash chain every frame
// is folded into spans segment boundaries, and payload[0] is the record
// type (an event part, a day-close, a seal or a receipt) and the rest is
// the record body.
// Records are applied to memory only after the frame hit the log
// (WAL-before-apply), so on restart "replay every valid frame"
// reconstructs exactly the applied state. A torn tail — a frame cut short
// or bit-flipped by a crash — fails its length or CRC check; the reader
// stops at the last valid frame and recovery truncates the file there. A
// frame that passes both checks but does not decode (a type no current
// writer emits, a body that does not parse) is no crash's residue: the
// walk refuses it in any segment, naming the segment and offset.
// Segments rotate at a size threshold so snapshots can prune whole files.

const (
	walMagic = "ACWL"
	// walVersion is the one segment form. Version 1, the plain form with a
	// 16-byte header and no chain, is refused by number.
	walVersion    = 2
	walHeaderSize = 16 + audit.HeadSize
	// maxWALRecord caps a frame's payload length. Nothing legitimate comes
	// close; a larger length prefix is corruption and must not turn into a
	// giant allocation.
	maxWALRecord = 1 << 26

	recClose byte = 2 // payload: type byte + day i64 LE
	// recEventsPart is one shard's slice of an ingest batch: type byte + batch ID u64 LE + part count u32 LE + JSON array of
	// Event. A batch split across N shard logs is durable only when all
	// `parts` frames exist; recovery drops batches with missing parts
	// (they were never acknowledged), which restores the all-or-nothing
	// Submit contract across shards. A part is logged even when the
	// shard's slice was entirely late-filtered, so the count is always
	// reachable for a batch that completed.
	recEventsPart byte = 3
	// recSeal is a segment seal: type byte + an
	// audit.Seal — the chain head over every prior frame of the segment.
	// Written as the final frame before rotation and at clean shutdown,
	// and folded into the chain itself so the next segment's header link
	// covers it. Replay treats it as a no-op.
	recSeal byte = 4
	// recReceipt is a signed rank receipt: type byte
	// + an audit.Receipt. Replay treats it as a no-op; the offline
	// verifier checks its signature and chain anchoring.
	recReceipt byte = 5

	// partHeaderSize is recEventsPart's fixed prefix: type + batch ID +
	// part count.
	partHeaderSize = 1 + 8 + 4
)

// walRecord is one decoded WAL record.
type walRecord struct {
	typ     byte
	events  []Event       // recEventsPart
	day     cert.Day      // recClose
	batchID uint64        // recEventsPart
	parts   uint32        // recEventsPart
	seal    audit.Seal    // recSeal
	receipt audit.Receipt // recReceipt
}

// walFrame is one framing-valid frame located inside a segment image.
type walFrame struct {
	off     int // byte offset of the frame start within the segment
	payload []byte
}

// encodeFrame frames a payload: length, CRC32-IEEE of the payload, payload.
func encodeFrame(payload []byte) []byte {
	buf := make([]byte, 8+len(payload))
	binary.LittleEndian.PutUint32(buf[0:4], uint32(len(payload)))
	binary.LittleEndian.PutUint32(buf[4:8], crc32.ChecksumIEEE(payload))
	copy(buf[8:], payload)
	return buf
}

// parseSegment scans a whole segment image and returns the header's
// sequence number, every framing-valid frame in order, the byte length of
// the valid prefix (header + whole valid frames), and whether the header
// itself was valid. It never panics and never reads past data: scanning
// stops at the first short, oversized, or CRC-mismatched frame, which is
// how a torn tail is found. Frame payloads alias data.
func parseSegment(data []byte) (seq uint64, frames []walFrame, goodLen int, hdrOK bool) {
	seq, _, err := parseSegHeader(data)
	if err != nil {
		return 0, nil, 0, false
	}
	goodLen = walHeaderSize
	for {
		rest := data[goodLen:]
		if len(rest) < 8 {
			return seq, frames, goodLen, true
		}
		n := binary.LittleEndian.Uint32(rest[0:4])
		if n == 0 || n > maxWALRecord || uint64(n) > uint64(len(rest)-8) {
			return seq, frames, goodLen, true
		}
		payload := rest[8 : 8+n]
		if crc32.ChecksumIEEE(payload) != binary.LittleEndian.Uint32(rest[4:8]) {
			return seq, frames, goodLen, true
		}
		frames = append(frames, walFrame{off: goodLen, payload: payload})
		goodLen += 8 + int(n)
	}
}

// encodeSegHeader builds a segment header carrying link, the previous
// segment's sealed chain head.
func encodeSegHeader(seq uint64, link audit.Head) []byte {
	hdr := make([]byte, 16, walHeaderSize)
	copy(hdr[:4], walMagic)
	binary.LittleEndian.PutUint32(hdr[4:8], walVersion)
	binary.LittleEndian.PutUint64(hdr[8:16], seq)
	return append(hdr, link[:]...)
}

// errTornHeader is a segment header cut short or not starting with the
// magic: what a crash during rotation leaves of a new segment's header.
var errTornHeader = errors.New("segment header invalid")

// parseSegHeader validates a segment header, returning the sequence number
// and the previous segment's chain link. A header of another version is
// refused by number — never taken for a torn one, which only the final
// segment may carry.
func parseSegHeader(data []byte) (seq uint64, link audit.Head, err error) {
	if len(data) < 8 || string(data[:4]) != walMagic {
		return 0, link, errTornHeader
	}
	if v := binary.LittleEndian.Uint32(data[4:8]); v != walVersion {
		return 0, link, fmt.Errorf("segment version %d unsupported (this build reads version %d only)", v, walVersion)
	}
	if len(data) < walHeaderSize {
		return 0, link, errTornHeader
	}
	copy(link[:], data[16:walHeaderSize])
	return binary.LittleEndian.Uint64(data[8:16]), link, nil
}

// decodeRecord decodes a framing-valid payload. A CRC-valid frame whose
// body does not decode is corruption (or a foreign format), reported as an
// error — never a panic. For an event part the codec's fast path reads, it
// also returns its elements' end offsets in the part's array
// (eventDecoder.decodeArray; appended to ends, nil for an array only
// encoding/json reads); with keep false such an array is only scanned and
// rec.events stays nil.
func decodeRecord(payload []byte, ends []int, keep bool) (walRecord, []int, error) {
	if len(payload) == 0 {
		return walRecord{}, nil, fmt.Errorf("serve: empty WAL record")
	}
	switch payload[0] {
	case recEventsPart:
		if len(payload) < partHeaderSize {
			return walRecord{}, nil, fmt.Errorf("serve: WAL part record has %d bytes, want ≥ %d", len(payload), partHeaderSize)
		}
		rec := walRecord{
			typ:     recEventsPart,
			batchID: binary.LittleEndian.Uint64(payload[1:9]),
			parts:   binary.LittleEndian.Uint32(payload[9:13]),
		}
		if rec.parts == 0 {
			return walRecord{}, nil, fmt.Errorf("serve: WAL part record declares zero parts")
		}
		var dec eventDecoder
		var err error
		if rec.events, ends, err = dec.decodeArray(payload[partHeaderSize:], ends, keep); err != nil {
			return walRecord{}, nil, fmt.Errorf("serve: WAL part record: %w", err)
		}
		for _, e := range rec.events {
			if !e.Valid() {
				return walRecord{}, nil, fmt.Errorf("serve: WAL part record holds invalid event")
			}
		}
		return rec, ends, nil
	case recClose:
		if len(payload) != 9 {
			return walRecord{}, nil, fmt.Errorf("serve: WAL close record has %d body bytes, want 8", len(payload)-1)
		}
		return walRecord{typ: recClose, day: cert.Day(int64(binary.LittleEndian.Uint64(payload[1:])))}, nil, nil
	case recSeal:
		s, err := audit.DecodeSeal(payload[1:])
		if err != nil {
			return walRecord{}, nil, fmt.Errorf("serve: WAL seal record: %w", err)
		}
		return walRecord{typ: recSeal, seal: s}, nil, nil
	case recReceipt:
		rc, err := audit.DecodeReceipt(payload[1:])
		if err != nil {
			return walRecord{}, nil, fmt.Errorf("serve: WAL receipt record: %w", err)
		}
		return walRecord{typ: recReceipt, receipt: rc}, nil, nil
	default:
		return walRecord{}, nil, fmt.Errorf("serve: unknown WAL record type %d", payload[0])
	}
}

// walPos addresses a frame boundary in the log: byte offset off within
// segment seg. Snapshots record the position their state corresponds to;
// replay resumes there.
type walPos struct {
	seg uint64
	off int64
}

// before reports whether p precedes q in log order.
func (p walPos) before(q walPos) bool {
	return p.seg < q.seg || p.seg == q.seg && p.off < q.off
}

// wal is the appender over the current segment. It is owned by one
// goroutine (the drain loop; the recovery path before the loop starts).
type wal struct {
	dir string
	// prefix is the segment-name prefix, "wal-shard<k>-" for shard k.
	prefix   string
	fs       persistFS
	segBytes int64
	policy   FsyncPolicy
	// stats is the owning shard's recording cell: append
	// traffic and fsync latency land there.
	stats *obs.ShardStats
	// aud is the stream's chain: every frame is folded into it, and seals
	// close each segment at rotation and clean close.
	aud walAudit

	seq uint64
	f   WritableFile
	off int64
	// lastPos is the start position of the most recently appended frame
	// (valid after a successful append; the proof index records it).
	lastPos walPos
	// enc encodes the event parts this stream appends.
	enc partEncoder
}

// walAudit is the per-stream audit state: the running chain, the Merkle
// scratch tree for event batches, and the frame count of the open
// segment (what the next seal will claim).
type walAudit struct {
	chain  *audit.Chain
	tree   *audit.Tree
	frames uint32
	root   audit.Head // the last appended batch's Merkle root
}

// head returns the wal's current chain head.
func (w *wal) head() audit.Head { return w.aud.chain.Head() }

// walShardPrefix names shard k's segment stream.
func walShardPrefix(k int) string { return fmt.Sprintf("wal-shard%d-", k) }

func walSegPath(dir, prefix string, seq uint64) string {
	return filepath.Join(dir, fmt.Sprintf("%s%08d.log", prefix, seq))
}

// openSegment starts a fresh segment with the given sequence number.
func (w *wal) openSegment(seq uint64) error {
	f, err := w.fs.create(walSegPath(w.dir, w.prefix, seq))
	if err != nil {
		return err
	}
	// The header chains the previous segment's sealed head.
	hdr := encodeSegHeader(seq, w.head())
	if _, err := f.Write(hdr); err != nil {
		f.Close()
		return err
	}
	// Make the segment's directory entry durable: fsyncing frame data into
	// a file whose entry a power loss can drop would void acknowledged
	// barriers.
	if err := w.fs.syncDir(w.dir); err != nil {
		f.Close()
		return err
	}
	w.f, w.seq, w.off, w.aud.frames = f, seq, int64(len(hdr)), 0
	return nil
}

// resumeSegment attaches the appender to an existing segment known to end
// at a frame boundary at size bytes.
func (w *wal) resumeSegment(seq uint64, size int64) error {
	f, err := w.fs.appendTo(walSegPath(w.dir, w.prefix, seq))
	if err != nil {
		return err
	}
	w.f, w.seq, w.off = f, seq, size
	return nil
}

// append frames one payload into the log, rotating to a new segment first
// when the current one is full. Returns only after the frame is written
// (and synced, under FsyncAlways). root is an event batch's Merkle root,
// nil for every other frame.
func (w *wal) append(payload []byte, root *audit.Head) error {
	if len(payload) > maxWALRecord {
		return fmt.Errorf("serve: WAL record of %d bytes exceeds cap %d", len(payload), maxWALRecord)
	}
	if err := w.rotateIfNeeded(8 + len(payload)); err != nil {
		return err
	}
	if err := w.writeFrame(payload, root); err != nil {
		return err
	}
	if w.policy == FsyncAlways {
		return w.syncFile()
	}
	return nil
}

// writeFrame is the one frame writer — events, barriers, seals and
// receipts all land through it: frame the payload, fold it into the chain
// (together with root, when the frame commits one), count it, write it. It
// never rotates.
func (w *wal) writeFrame(payload []byte, root *audit.Head) error {
	frame := encodeFrame(payload)
	start := time.Now()
	if root != nil {
		w.aud.chain.FoldWithRoot(frame, *root)
	} else {
		w.aud.chain.Fold(frame)
	}
	w.aud.frames++
	w.stats.ObserveWALHash(start)
	w.lastPos = walPos{seg: w.seq, off: w.off}
	n, err := w.f.Write(frame)
	w.off += int64(n)
	if err != nil {
		return err
	}
	w.stats.AddWALAppend(len(frame))
	return nil
}

// rotateIfNeeded closes the current segment and opens the next when an
// incoming frame of frameLen bytes would overflow it, sealing the
// outgoing segment first.
func (w *wal) rotateIfNeeded(frameLen int) error {
	if w.off <= walHeaderSize || w.off+int64(frameLen) <= w.segBytes {
		return nil
	}
	if err := w.writeSeal(); err != nil {
		return err
	}
	if err := w.syncFile(); err != nil {
		return err
	}
	if err := w.f.Close(); err != nil {
		return err
	}
	w.f = nil
	return w.openSegment(w.seq + 1)
}

// appendEvents appends an event-batch payload. bodies (each event's JSON
// encoding, slicing payload) are hashed into the batch's Merkle leaves and
// the root is committed into the chain alongside the frame; the caller can
// then read leaves/root/lastPos for the proof index.
func (w *wal) appendEvents(payload []byte, bodies [][]byte) error {
	start := time.Now()
	a := &w.aud
	a.tree.Reset()
	for _, b := range bodies {
		a.tree.AddLeaf(b)
	}
	a.root = a.tree.Root()
	w.stats.ObserveWALHash(start)
	return w.append(payload, &a.root)
}

// writeSeal appends the segment seal: the chain head over every prior
// frame of the open segment, itself folded into the chain so the next
// header's link covers it. Called before rotation and at clean close;
// a crash can legitimately leave the final segment unsealed.
func (w *wal) writeSeal() error {
	s := audit.Seal{Head: w.aud.chain.Head(), Seq: w.seq, Frames: w.aud.frames}
	return w.writeFrame(append([]byte{recSeal}, s.Encode()...), nil)
}

// partEncoder encodes recEventsPart payloads into buffers it keeps, so a
// shard's appends stop allocating once the buffers have grown to its batch
// size. The zero value is ready; what encode returns is valid until the
// next call.
type partEncoder struct {
	buf    []byte
	ends   []int
	bodies [][]byte
}

// encode encodes one shard's slice of a batch as a recEventsPart payload
// and returns each event's JSON bytes (aliasing the payload) — the batch's
// Merkle leaves, hashed without re-marshaling. events may
// be empty (a slice the late filter consumed entirely): the frame still
// ships, holding "[]", so the batch's part count stays reachable on
// replay.
func (pe *partEncoder) encode(batchID uint64, parts uint32, events []Event) ([]byte, [][]byte, error) {
	if cap(pe.buf) > maxKeptBuffer {
		*pe = partEncoder{}
	}
	buf := append(pe.buf[:0], recEventsPart)
	buf = binary.LittleEndian.AppendUint64(buf, batchID)
	buf = binary.LittleEndian.AppendUint32(buf, parts)
	var err error
	if pe.buf, pe.ends, err = appendEventArray(buf, pe.ends[:0], events); err != nil {
		return nil, nil, fmt.Errorf("serve: encode WAL events: %w", err)
	}
	pe.bodies = pe.bodies[:0]
	start := partHeaderSize + 1
	for _, end := range pe.ends {
		pe.bodies = append(pe.bodies, pe.buf[start:end])
		start = end + 1
	}
	return pe.buf, pe.bodies, nil
}

// encodePartPayload is partEncoder.encode into buffers of the call's own.
func encodePartPayload(batchID uint64, parts uint32, events []Event) ([]byte, [][]byte, error) {
	var pe partEncoder
	return pe.encode(batchID, parts, events)
}

// sizeEncoders holds the part encoders checkRecordSize encodes into.
var sizeEncoders = sync.Pool{New: func() any { return new(partEncoder) }}

// checkRecordSize refuses events whose recEventsPart payload would pass
// the frame cap. The encoding is only measured, so it goes to a pooled
// encoder and the check leaves no garbage behind.
func checkRecordSize(parts uint32, events []Event) error {
	pe := sizeEncoders.Get().(*partEncoder)
	payload, _, err := pe.encode(0, parts, events)
	size := len(payload)
	sizeEncoders.Put(pe)
	if err == nil && size > maxWALRecord {
		err = fmt.Errorf("%w (%d bytes, cap %d)", ErrBatchTooLarge, size, maxWALRecord)
	}
	return err
}

// batchRoot recomputes the Merkle root a logged event part committed, and
// its leaves (a copy). Each leaf hashes an element's logged bytes: the very
// bytes partEncoder.encode returned as the batch's leaves at append time,
// never a re-encoding of the decoded event (a time less than a minute off
// UTC is logged as "-00:00" and would re-encode as "Z"). ends locates them
// in the part's array (decodeRecord); an array the fast path could not
// read has none, and encoding/json, which read it, delimits its elements
// instead.
func batchRoot(t *audit.Tree, array []byte, ends []int) (audit.Head, []audit.Head, error) {
	t.Reset()
	if len(ends) > 0 {
		start := 1
		for _, end := range ends {
			t.AddLeaf(array[start:end])
			start = end + 1
		}
	} else {
		var elems []json.RawMessage
		if err := json.Unmarshal(array, &elems); err != nil {
			return audit.Head{}, nil, fmt.Errorf("serve: WAL part elements: %w", err)
		}
		for _, e := range elems {
			t.AddLeaf(e)
		}
	}
	return t.Root(), append([]audit.Head(nil), t.Leaves()...), nil
}

// appendReceipt logs a signed rank receipt. The receipt's chain anchor
// must be the head immediately before its own frame, so rotation (which
// folds a seal) happens first, then the caller-supplied sign callback
// stamps Head and Sig against the settled chain state.
func (w *wal) appendReceipt(rc *audit.Receipt, sign func(*audit.Receipt)) error {
	probe := *rc
	sign(&probe) // receipts are fixed-size; any signed encoding sizes the frame
	frameLen := 8 + 1 + len(probe.Encode())
	if err := w.rotateIfNeeded(frameLen); err != nil {
		return err
	}
	rc.Head = w.head()
	sign(rc)
	return w.append(append([]byte{recReceipt}, rc.Encode()...), nil)
}

// appendClose logs a close-through-day barrier.
func (w *wal) appendClose(d cert.Day) error {
	var payload [9]byte
	payload[0] = recClose
	binary.LittleEndian.PutUint64(payload[1:], uint64(int64(d)))
	return w.append(payload[:], nil)
}

// pos returns the current append position (a frame boundary).
func (w *wal) pos() walPos { return walPos{seg: w.seq, off: w.off} }

// sync flushes the current segment.
func (w *wal) sync() error {
	if w.f == nil {
		return nil
	}
	return w.syncFile()
}

// syncFile fsyncs the open segment, timing the call.
func (w *wal) syncFile() error {
	start := time.Now()
	err := w.f.Sync()
	if err == nil {
		w.stats.ObserveFsync(start)
	}
	return err
}

// close seals, syncs and closes the current segment: after a clean
// shutdown every segment (including the last) carries its seal, so the
// offline verifier can attest the whole log. A crash skips this and leaves
// an honest unsealed tail.
func (w *wal) close() error {
	if w.f == nil {
		return nil
	}
	err := w.writeSeal()
	if serr := w.syncFile(); err == nil {
		err = serr
	}
	if cerr := w.f.Close(); err == nil {
		err = cerr
	}
	w.f = nil
	return err
}
