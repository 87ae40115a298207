package serve

import (
	"bufio"
	"bytes"
	"crypto/ed25519"
	"crypto/sha256"
	"encoding/binary"
	"fmt"
	"hash"
	"hash/crc32"
	"io"
	"log/slog"
	"os"
	"path/filepath"
	"slices"
	"time"

	"acobe/internal/audit"
	"acobe/internal/cert"
	"acobe/internal/persist"
)

// Snapshots bound recovery cost: a snapshot captures one shard's ingest
// state at a day-close barrier (measurement table, extractor first-seen
// trackers, the extractor's state of each day still open, counters) plus
// the WAL position it corresponds to, so a restart loads the newest valid
// snapshot and replays only the WAL tail behind it. Nothing derived from
// the measurements is stored: the deviation windows and the group state
// are rebuilt at recovery by the code a live close runs.
// A snapshot round writes one snapshot-shard<k>-<day>.snap per shard, every
// one the same shape, plus a manifest (see manifest.go) pinning the cut.
// Snapshots are published atomically (tmp + fsync + rename): a crash
// mid-write leaves only a .tmp the reader ignores. The newest two
// generations are kept so a corrupt latest snapshot falls back one
// generation, and WAL segments are pruned only below the oldest retained
// snapshot's position.

const (
	snapMagic   = "ACSN"
	snapTrailer = "ACSE"
	// snapVersion is the one snapshot form: the header carries the WAL
	// chain head at the snapshot's position (so the snapshot attests to the
	// exact log prefix it summarizes), and the file ends with an ed25519
	// signature over the SHA-256 of everything before it (body + CRC).
	// Versions 1 and 2 also stored the deviation windows and, on shard 0,
	// the group state; version 3 was the unsigned form with no chain head.
	// All three are refused by number.
	snapVersion    = 4
	snapRetain     = 2
	snapSuffix     = ".snap"
	snapTempSuffix = ".snap.tmp"
	// snapBlock is the unit a snapshot file is written and read in: the
	// codec under it issues one call per length prefix and per series, and
	// only whole blocks reach the file, the checksum and the digest. The
	// block lives for one publish or one load.
	snapBlock = 256 << 10
)

// snapShardPrefix names shard k's snapshot series.
func snapShardPrefix(k int) string { return fmt.Sprintf("snapshot-shard%d-", k) }

func snapPath(dir, prefix string, day cert.Day) string {
	return filepath.Join(dir, fmt.Sprintf("%s%08d%s", prefix, int64(day), snapSuffix))
}

// listSnapshots returns the published snapshots with the given name
// prefix, newest first.
func listSnapshots(dir, prefix string) ([]dirFile, error) {
	out, err := listStream(dir, prefix, snapSuffix)
	slices.Reverse(out)
	return out, err
}

// listSegments returns the WAL segments present in dir under the given
// name prefix, ascending by sequence number.
func listSegments(dir, prefix string) ([]dirFile, error) {
	return listStream(dir, prefix, ".log")
}

// snapHeader is the head of every snapshot file: the day and WAL position
// the state corresponds to and the chain head at that position — the
// snapshot attests the exact log prefix it summarizes, anchoring proofs
// past future pruning. The file ends in a signature (see publishSnapshot).
type snapHeader struct {
	day  cert.Day
	pos  walPos
	head audit.Head
}

func (h snapHeader) encode(pw *persist.Writer) {
	pw.Magic(snapMagic, snapVersion)
	pw.I64(int64(h.day))
	pw.U64(h.pos.seg)
	pw.I64(h.pos.off)
	pw.Bytes(h.head[:])
}

// decodeSnapHeader is the one reader of the layout encode writes; a
// failure is left in pr.
func decodeSnapHeader(pr *persist.Reader) (h snapHeader) {
	if v := pr.Magic(snapMagic); pr.Err() == nil && v != snapVersion {
		pr.Fail(fmt.Errorf("serve: snapshot version %d unsupported (this build reads version %d only)", v, snapVersion))
	}
	h.day = cert.Day(pr.I64())
	h.pos.seg = pr.U64()
	h.pos.off = pr.I64()
	hb := pr.Bytes()
	if pr.Err() == nil && len(hb) != audit.HeadSize {
		pr.Fail(fmt.Errorf("serve: snapshot chain head is %d bytes, want %d", len(hb), audit.HeadSize))
	}
	copy(h.head[:], hb)
	return h
}

// readSnapHeader reads only a snapshot file's header — what pruning needs
// of it.
func readSnapHeader(path string) (snapHeader, error) {
	f, err := os.Open(path)
	if err != nil {
		return snapHeader{}, err
	}
	defer f.Close()
	pr := persist.NewReader(bufio.NewReader(f))
	h := decodeSnapHeader(pr)
	return h, pr.Err()
}

// encodeSnapshot writes one shard's ingest state. It runs on the shard's
// goroutine inside a snapshot round, while the coordinator waits: the
// shard is the only writer of its ingest state, so no locks are needed.
func (s *Server) encodeSnapshot(w io.Writer, sh *shard, h snapHeader) error {
	pw := persist.NewWriter(w)
	h.encode(pw)
	pw.I64(sh.ingested.Load())
	pw.I64(sh.late.Load())
	pw.Strings(sh.users)
	pw.I64(int64(s.cfg.Start))
	if err := pw.Err(); err != nil {
		return err
	}
	if sh.ing != nil { // nil for a shard without users
		if err := sh.ing.SaveState(w); err != nil {
			return err
		}
	}
	// Last, one blob per day still open, ascending.
	var open []cert.Day
	if sh.ing != nil {
		for d := range sh.ing.OpenDays() {
			open = append(open, d)
		}
		slices.Sort(open)
	}
	pw.U64(uint64(len(open)))
	var blob bytes.Buffer
	for _, d := range open {
		blob.Reset()
		if err := sh.ing.SaveOpenDay(&blob, d); err != nil {
			return err
		}
		pw.I64(int64(d))
		pw.Bytes(blob.Bytes())
	}
	pw.Magic(snapTrailer, snapVersion)
	return pw.Err()
}

// loadSnapshot restores a snapshot file into a freshly constructed shard
// and re-derives the shard's deviation windows, which the file does not
// hold: the shard's stream advances over the loaded table — the advance
// its closes ran, over the same measurements in the same order, so every σ
// comes out bit for bit — writing its rows into room the caller reserved
// through the snapshot's day. Any decoding or validation failure leaves
// the caller free to fall back to an older snapshot (the caller rebuilds
// the core per attempt).
func (s *Server) loadSnapshot(path string, sh *shard) (snapHeader, error) {
	h, err := readSnapshotFile(path, s.auditPub(), func(cr *snapStream) error { return s.decodeSnapshot(cr, sh) })
	if err != nil {
		return h, err
	}
	sh.closedThrough = h.day
	if sh.ing == nil {
		return h, nil
	}
	// The one check the stored windows used to make: a shard's table ends
	// on the day its closes reached.
	if _, end := sh.ing.Table().Span(); end != h.day {
		return h, fmt.Errorf("%w: snapshot table ends on day %d, not on the snapshot's day %d", persist.ErrCorrupt, int64(end), int64(h.day))
	}
	return h, sh.ind.Advance()
}

// readSnapshotFile is readSnapshot over the file at path.
func readSnapshotFile(path string, pub ed25519.PublicKey, state func(*snapStream) error) (snapHeader, error) {
	f, err := os.Open(path)
	if err != nil {
		return snapHeader{}, err
	}
	defer f.Close()
	st, err := f.Stat()
	if err != nil {
		return snapHeader{}, err
	}
	return readSnapshot(newSnapStream(f, st.Size()), pub, state)
}

// decodeSnapshot is loadSnapshot's state reader: every state blob after
// the header, into sh, through the trailer.
func (s *Server) decodeSnapshot(cr *snapStream, sh *shard) error {
	pr := persist.NewReader(cr)
	sh.ingested.Store(pr.I64())
	sh.late.Store(pr.I64())
	users := pr.Strings()
	start := cert.Day(pr.I64())
	if err := pr.Err(); err != nil {
		return err
	}
	if !slices.Equal(users, sh.users) {
		return fmt.Errorf("serve: snapshot users do not match configuration")
	}
	if start != s.cfg.Start {
		return fmt.Errorf("serve: snapshot start day %v does not match configuration (%v)", start, s.cfg.Start)
	}
	if sh.ing != nil {
		if err := sh.ing.LoadState(cr); err != nil {
			return err
		}
	}
	ndays := pr.Len()
	for i := 0; i < ndays && pr.Err() == nil; i++ {
		d := cert.Day(pr.I64())
		body := pr.Bytes()
		if pr.Err() != nil {
			break
		}
		if sh.ing == nil {
			return fmt.Errorf("serve: snapshot holds open-day state for a shard without users")
		}
		if err := sh.ing.LoadOpenDay(body, d); err != nil {
			return err
		}
	}
	if v := pr.Magic(snapTrailer); pr.Err() == nil && v != snapVersion {
		return fmt.Errorf("serve: snapshot trailer version %d unsupported", v)
	}
	return pr.Err()
}

// drainState is the verifier's state reader: everything before the
// checksum, unread (nothing, in a file too short to hold one).
func drainState(cr *snapStream) error {
	_, err := io.CopyN(io.Discard, cr, int64(cr.Len())-4-audit.SigSize)
	return err
}

// readSnapshot is the one reader of a snapshot file's bytes, whoever
// reads it: the header (a retired version is refused by number, not by the
// signature it never carried), then the state through state, then the
// checksum, the signature and the end of the file. A file whose checksum
// passes but whose signature does not was altered and re-checksummed, or
// signed by another key: that is ErrAuditChainBroken, not damage.
func readSnapshot(cr *snapStream, pub ed25519.PublicKey, state func(*snapStream) error) (snapHeader, error) {
	pr := persist.NewReader(cr)
	h := decodeSnapHeader(pr)
	if err := pr.Err(); err != nil {
		return h, err
	}
	if err := state(cr); err != nil {
		return h, err
	}
	// The stored CRC covers everything up to and including the trailer;
	// reading it through cr still feeds the digest, which covers it too.
	want := cr.checksum()
	var stored [4]byte
	if _, err := io.ReadFull(cr, stored[:]); err != nil {
		return h, fmt.Errorf("serve: snapshot checksum missing: %w", err)
	}
	if got := binary.LittleEndian.Uint32(stored[:]); got != want {
		return h, fmt.Errorf("serve: snapshot checksum mismatch (stored %08x, computed %08x)", got, want)
	}
	// The signature is over body and CRC, not over itself: the digest is
	// cut before it is read.
	signed := cr.digest()
	var sig [audit.SigSize]byte
	if _, err := io.ReadFull(cr, sig[:]); err != nil {
		return h, fmt.Errorf("serve: snapshot signature missing: %w", err)
	}
	if !audit.VerifyContext(pub, sig, audit.ContextSnapshot, signed) {
		return h, fmt.Errorf("%w: snapshot signature invalid (key %s)", ErrAuditChainBroken, audit.Fingerprint(pub))
	}
	// The file ends with its last expected byte: nothing appended to it
	// rides along unchecked.
	if _, err := io.ReadFull(cr, stored[:1]); err == nil {
		return h, fmt.Errorf("serve: snapshot has trailing bytes after its last field")
	} else if err != io.EOF {
		return h, err
	}
	return h, nil
}

// snapStream is the one reader a snapshot file is read through. It reads
// the file a block at a time and hands the decoders what they ask for; the
// bytes they consumed are folded into the checksum and the digest the
// trailing signature is checked against a block at a time too —
// when the block is used up, and when a sum is asked for — so the hashes
// cover exactly what was decoded without being fed word by word. It also
// counts the bytes the file still holds, which bounds every length prefix
// the decoders meet (persist.NewReader finds Len): a flipped prefix bit
// fails as corruption instead of allocating what it claims before the
// checksum at the end of the file can object.
type snapStream struct {
	f      io.Reader
	buf    []byte
	r, w   int // buf[r:w] is read from the file and not yet consumed
	folded int // buf[folded:r] is consumed and not yet in the hashes
	left   int64
	crc    hash.Hash32
	sum    hash.Hash
}

func newSnapStream(f io.Reader, size int64) *snapStream {
	return &snapStream{f: f, buf: make([]byte, snapBlock), left: size, crc: crc32.NewIEEE(), sum: sha256.New()}
}

func (s *snapStream) Read(p []byte) (int, error) {
	if s.r == s.w {
		s.fold()
		n, err := s.f.Read(s.buf)
		s.r, s.w, s.folded = 0, n, 0
		if n == 0 {
			return 0, err
		}
	}
	n := copy(p, s.buf[s.r:s.w])
	s.r += n
	s.left -= int64(n)
	return n, nil
}

// Len is how many bytes of the file no decoder has consumed yet.
func (s *snapStream) Len() int { return int(max(s.left, 0)) }

// fold brings the hashes up to the last byte consumed.
func (s *snapStream) fold() {
	s.crc.Write(s.buf[s.folded:s.r])
	s.sum.Write(s.buf[s.folded:s.r])
	s.folded = s.r
}

// checksum and digest are the CRC32 and the SHA-256 of every byte
// consumed so far; what is read after a sum is cut does not change it.
func (s *snapStream) checksum() uint32 { s.fold(); return s.crc.Sum32() }
func (s *snapStream) digest() []byte   { s.fold(); return s.sum.Sum(nil) }

// publishSnapshot writes one snapshot file atomically: tmp + CRC +
// signature + fsync + rename + directory fsync. The state
// encoders write through one block buffer; the file (under whatever the
// fault hooks wrapped it in), the checksum and the digest see blocks.
func (s *Server) publishSnapshot(final string, sh *shard, h snapHeader) error {
	start := time.Now()
	tmp := final + ".tmp"
	f, err := s.fs.create(tmp)
	if err != nil {
		return err
	}
	// The body is followed by its CRC32, so silent corruption (a flipped
	// bit in float data would otherwise decode fine) is detected at load
	// time; the signature is then over the SHA-256 of body and CRC.
	crc, sum := crc32.NewIEEE(), sha256.New()
	bw := bufio.NewWriterSize(io.MultiWriter(f, crc, sum), snapBlock)
	err = s.encodeSnapshot(bw, sh, h)
	if err == nil {
		err = bw.Flush() // the checksum is of the whole body
	}
	if err == nil {
		bw.Write(binary.LittleEndian.AppendUint32(nil, crc.Sum32()))
		err = bw.Flush() // the digest is of body and checksum
	}
	if err == nil {
		sig := audit.SignContext(s.auditPriv, audit.ContextSnapshot, sum.Sum(nil))
		_, err = f.Write(sig[:])
	}
	sh.snapEncode = time.Since(start)
	s.obs.ObserveSnapshotEncode(sh.snapEncode)
	start = time.Now()
	if err == nil {
		err = f.Sync()
	}
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		_ = s.fs.remove(tmp) // best effort; recovery ignores .tmp files anyway
		return err
	}
	if err := s.fs.rename(tmp, final); err != nil {
		return err
	}
	// The rename must be durable before pruning anything the new snapshot
	// obsoletes: without the directory fsync a power loss could keep the
	// prunes while dropping the publish, leaving a pruned WAL with no (or
	// only an older, position-dangling) snapshot.
	if err := s.fs.syncDir(s.pcfg.Dir); err != nil {
		return err
	}
	sh.snapSync = time.Since(start)
	s.obs.ObserveSnapshotSync(sh.snapSync)
	return nil
}

// shardSnapshot publishes one shard's snapshot at the current barrier. It
// runs on the shard's goroutine (isSnap envelope), so the shard state is
// quiescent; the coordinator writes the manifest only after every shard
// acked.
func (s *Server) shardSnapshot(sh *shard) error {
	if err := s.persistErr(); err != nil {
		return err
	}
	if err := sh.wal.sync(); err != nil {
		return s.failPersist(err)
	}
	h := snapHeader{day: sh.closedThrough, pos: sh.wal.pos(), head: sh.wal.head()}
	sh.snapHead = h.head
	if err := s.publishSnapshot(snapPath(s.pcfg.Dir, snapShardPrefix(sh.idx), h.day), sh, h); err != nil {
		return s.failPersist(err)
	}
	return nil
}

// snapshotRound runs a coordinated snapshot round once enough days closed
// since the last one: every shard publishes its own snapshot at the
// barrier, and only then the manifest pins the cut — a crash anywhere in
// between leaves the previous manifest (and its snapshots, still
// retained) authoritative. What the new cut obsoletes is pruned last, so
// the crash window between publish and prune only leaves extra files
// behind, never a recovery gap.
func (s *Server) snapshotRound() error {
	if s.daysSinceSnap < s.pcfg.SnapshotEvery {
		return nil
	}
	start := time.Now()
	// Quiesce Submit fan-out for the round: snapMu held
	// exclusively from the broadcast until every shard acked means each
	// batch's parts are enqueued either entirely before every shard's
	// isSnap envelope or entirely after it, so the recorded WAL positions
	// agree about which batches the snapshots bake in. Without this a
	// batch could straddle the cut and recovery would drop the tail-side
	// half of an acknowledged batch (see snapMu in server.go).
	s.snapMu.Lock()
	acks := make([]chan error, len(s.shards))
	for i, sh := range s.shards {
		acks[i] = make(chan error, 1)
		sh.queue <- envelope{isSnap: true, done: acks[i]}
	}
	var firstErr error
	slowest := s.shards[0]
	for i, ack := range acks {
		if err := <-ack; err != nil && firstErr == nil {
			firstErr = err
		}
		if sh := s.shards[i]; sh.snapEncode+sh.snapSync > slowest.snapEncode+slowest.snapSync {
			slowest = sh
		}
	}
	s.snapMu.Unlock()
	if firstErr != nil {
		return firstErr
	}
	day := s.ClosedThrough()
	if err := s.writeManifest(day); err != nil {
		return err
	}
	if err := s.prune(); err != nil {
		return err
	}
	s.daysSinceSnap = 0
	round := time.Since(start)
	s.obs.ObserveSnapshot(round, int64(day))
	slog.Info("serve: snapshot cut", "day", int64(day), "round_s", round.Seconds(),
		"slowest_shard", slowest.idx, "encode_s", slowest.snapEncode.Seconds(), "sync_s", slowest.snapSync.Seconds())
	return nil
}
