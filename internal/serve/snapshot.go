package serve

import (
	"bufio"
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"fmt"
	"hash"
	"hash/crc32"
	"io"
	"os"
	"path/filepath"
	"slices"

	"acobe/internal/audit"
	"acobe/internal/cert"
	"acobe/internal/persist"
)

// Snapshots bound recovery cost: a snapshot captures one shard's complete
// ingest state at a day-close barrier (measurement table, extractor
// first-seen trackers, streaming deviation windows, the extractor's state
// of each day still open, counters) plus the WAL position it corresponds
// to, so a restart loads the newest valid snapshot and replays only the WAL
// tail behind it.
// A snapshot round writes one snapshot-shard<k>-<day>.snap per shard plus
// a manifest (see manifest.go) pinning the cut; shard 0's snapshot
// additionally carries the global group state. Snapshots are published
// atomically (tmp + fsync + rename): a crash mid-write leaves only a .tmp
// the reader ignores. The newest two generations are kept so a corrupt
// latest snapshot falls back one generation, and WAL segments are pruned
// only below the oldest retained snapshot's position.

const (
	snapMagic   = "ACSN"
	snapTrailer = "ACSE"
	snapVersion = 1
	// snapAuditVersion marks an audit-attesting snapshot: the header
	// additionally carries the WAL chain head at the snapshot's position
	// (so the snapshot attests to the exact log prefix it summarizes),
	// and the file ends with an ed25519 signature over the SHA-256 of
	// everything before it (body + CRC). Audit off keeps writing
	// version 1 byte-identically.
	snapAuditVersion = 2
	snapRetain       = 2
	snapSuffix       = ".snap"
	snapTempSuffix   = ".snap.tmp"
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
// the state corresponds to and, in an audited snapshot, the chain head at
// that position — the snapshot attests the exact log prefix it
// summarizes, anchoring proofs past future pruning. An audited file also
// ends in a signature (see publishSnapshot).
type snapHeader struct {
	audited bool
	day     cert.Day
	pos     walPos
	head    audit.Head
}

// snapVer maps the audit bit to the format version stamped on a
// snapshot's header and trailer.
func snapVer(audited bool) uint32 {
	if audited {
		return snapAuditVersion
	}
	return snapVersion
}

func (h snapHeader) encode(pw *persist.Writer) {
	pw.Magic(snapMagic, snapVer(h.audited))
	pw.I64(int64(h.day))
	pw.U64(h.pos.seg)
	pw.I64(h.pos.off)
	if h.audited {
		pw.Bytes(h.head[:])
	}
}

// decodeSnapHeader is the one reader of the layout encode writes; a
// failure is left in pr.
func decodeSnapHeader(pr *persist.Reader) (h snapHeader) {
	v := pr.Magic(snapMagic)
	h.audited = v == snapAuditVersion
	if pr.Err() == nil && v != snapVer(h.audited) {
		pr.Fail(fmt.Errorf("serve: snapshot version %d unsupported", v))
	}
	h.day = cert.Day(pr.I64())
	h.pos.seg = pr.U64()
	h.pos.off = pr.I64()
	if h.audited {
		hb := pr.Bytes()
		if pr.Err() == nil && len(hb) != audit.HeadSize {
			pr.Fail(fmt.Errorf("serve: snapshot chain head is %d bytes, want %d", len(hb), audit.HeadSize))
		}
		copy(h.head[:], hb)
	}
	return h
}

// readSnapHeader reads only a snapshot file's header — what pruning and
// migration need of it.
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

// encodeSnapshot writes one shard's state. It runs on the shard's
// goroutine inside a snapshot round, while the coordinator waits: the
// shard is the only writer of its ingest state, nobody writes the shared
// field or the group state until the round ends, and queries only read
// published headers — so no locks are needed. Shard 0's snapshot carries
// the global group state of a grouped server.
func (s *Server) encodeSnapshot(w io.Writer, sh *shard, h snapHeader) error {
	withGroups := s.snapshotsGroups(sh)
	ing, _ := sh.ing.(StatefulIngestor) // nil for a shard without users; Open vetted the rest
	pw := persist.NewWriter(w)
	h.encode(pw)
	pw.I64(sh.ingested.Load())
	pw.I64(sh.late.Load())
	pw.Strings(sh.users)
	pw.Strings(s.cfg.Groups)
	pw.I64(int64(s.cfg.Start))
	pw.Int(s.cfg.Deviation.Window)
	if err := pw.Err(); err != nil {
		return err
	}
	if ing != nil {
		if err := ing.SaveState(w); err != nil {
			return err
		}
		if err := sh.ind.SaveState(w); err != nil {
			return err
		}
	}
	pw.Bool(withGroups)
	if withGroups {
		if err := pw.Err(); err != nil {
			return err
		}
		if err := s.grpTbl.SaveState(w); err != nil {
			return err
		}
		if err := s.grp.SaveState(w); err != nil {
			return err
		}
	}
	// Last, one blob per day still open, ascending — where this layout's
	// first writers kept the day's raw events as a JSON array.
	var open []cert.Day
	if ing != nil {
		for d := range ing.OpenDays() {
			open = append(open, d)
		}
		slices.Sort(open)
	}
	pw.U64(uint64(len(open)))
	var blob bytes.Buffer
	for _, d := range open {
		blob.Reset()
		if err := ing.SaveOpenDay(&blob, d); err != nil {
			return err
		}
		pw.I64(int64(d))
		pw.Bytes(blob.Bytes())
	}
	pw.Magic(snapTrailer, snapVer(h.audited))
	return pw.Err()
}

// snapshotsGroups reports whether sh's snapshots carry the group state.
func (s *Server) snapshotsGroups(sh *shard) bool { return sh.idx == 0 && s.grp != nil }

// loadSnapshot restores a snapshot file into a freshly constructed
// shard (and, for shard 0, the server's group state). Any decoding or
// validation failure leaves the caller free to fall back to an older
// snapshot (the state is only mutated after the header validates, and the
// caller rebuilds the core per attempt).
func (s *Server) loadSnapshot(path string, sh *shard) (snapHeader, error) {
	f, err := os.Open(path)
	if err != nil {
		return snapHeader{}, err
	}
	defer f.Close()
	st, err := f.Stat()
	if err != nil {
		return snapHeader{}, err
	}
	return s.decodeSnapshot(newSnapStream(f, st.Size(), s.auditOn()), sh)
}

// decodeSnapshot is loadSnapshot over the opened file's stream: every
// state blob, then the checksum, the signature of an audited snapshot, and
// the end of the file.
func (s *Server) decodeSnapshot(cr *snapStream, sh *shard) (h snapHeader, err error) {
	withGroups := s.snapshotsGroups(sh)
	ing, _ := sh.ing.(StatefulIngestor) // as in encodeSnapshot
	audited := cr.sum != nil
	pr := persist.NewReader(cr)
	h = decodeSnapHeader(pr)
	if pr.Err() == nil && h.audited != audited {
		return h, fmt.Errorf("serve: snapshot %w", auditMismatch(h.audited))
	}
	ingested := pr.I64()
	late := pr.I64()
	users := pr.Strings()
	groups := pr.Strings()
	start := cert.Day(pr.I64())
	window := pr.Int()
	if err := pr.Err(); err != nil {
		return h, err
	}
	if !slices.Equal(users, sh.users) || !slices.Equal(groups, s.cfg.Groups) {
		return h, fmt.Errorf("serve: snapshot users/groups do not match configuration")
	}
	if start != s.cfg.Start || window != s.cfg.Deviation.Window {
		return h, fmt.Errorf("serve: snapshot shape (start %v, window %d) does not match configuration (%v, %d)",
			start, window, s.cfg.Start, s.cfg.Deviation.Window)
	}
	if ing != nil {
		if err := ing.LoadState(cr); err != nil {
			return h, err
		}
		if err := sh.ind.LoadState(cr); err != nil {
			return h, err
		}
	}
	hasGroups := pr.Bool()
	if pr.Err() == nil && hasGroups != withGroups {
		return h, fmt.Errorf("serve: snapshot group presence does not match configuration")
	}
	if err := pr.Err(); err != nil {
		return h, err
	}
	if hasGroups {
		if err := s.grpTbl.LoadState(cr); err != nil {
			return h, err
		}
		if err := s.grp.LoadState(cr); err != nil {
			return h, err
		}
	}
	ndays := pr.Len()
	for i := 0; i < ndays && pr.Err() == nil; i++ {
		d := cert.Day(pr.I64())
		body := pr.Bytes()
		if pr.Err() != nil {
			break
		}
		if len(body) > 0 && body[0] == '[' {
			// Written before extraction moved to apply time: the open
			// day's buffered events. Apply them now (the counters are set
			// from the header below).
			evs, err := new(eventDecoder).decodeArray(body)
			if err != nil {
				return h, fmt.Errorf("serve: snapshot buffered events: %w", err)
			}
			if err := sh.apply(evs, 0); err != nil {
				return h, err
			}
		} else if ing == nil {
			return h, fmt.Errorf("serve: snapshot holds open-day state for a shard without users")
		} else if err := ing.LoadOpenDay(body, d); err != nil {
			return h, err
		}
	}
	if v := pr.Magic(snapTrailer); pr.Err() == nil && v != snapVer(h.audited) {
		return h, fmt.Errorf("serve: snapshot trailer version %d unsupported", v)
	}
	if err := pr.Err(); err != nil {
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
	if audited {
		// The signature is over body and CRC, not over itself: the digest
		// is cut before it is read.
		signed := cr.digest()
		var sig [audit.SigSize]byte
		if _, err := io.ReadFull(cr, sig[:]); err != nil {
			return h, fmt.Errorf("serve: snapshot signature missing: %w", err)
		}
		if !audit.VerifyContext(s.auditPub(), sig, audit.ContextSnapshot, signed) {
			return h, fmt.Errorf("serve: snapshot signature invalid (key %s)", audit.Fingerprint(s.auditPub()))
		}
	}
	// In both modes the file ends with its last expected byte: nothing
	// appended to it rides along unchecked.
	if _, err := io.ReadFull(cr, stored[:1]); err == nil {
		return h, fmt.Errorf("serve: snapshot has trailing bytes after its last field")
	} else if err != io.EOF {
		return h, err
	}
	sh.closedThrough = h.day
	sh.ingested.Store(ingested)
	sh.late.Store(late)
	return h, nil
}

// snapStream is the one reader a snapshot file is loaded through. It reads
// the file a block at a time and hands the decoders what they ask for; the
// bytes they consumed are folded into the checksum and (audited) the
// digest the trailing signature is checked against a block at a time too —
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
	sum    hash.Hash // nil on a plain snapshot
}

func newSnapStream(f io.Reader, size int64, audited bool) *snapStream {
	s := &snapStream{f: f, buf: make([]byte, snapBlock), left: size, crc: crc32.NewIEEE()}
	if audited {
		s.sum = sha256.New()
	}
	return s
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
	if s.sum != nil {
		s.sum.Write(s.buf[s.folded:s.r])
	}
	s.folded = s.r
}

// checksum and digest are the CRC32 and the SHA-256 of every byte
// consumed so far; what is read after a sum is cut does not change it.
func (s *snapStream) checksum() uint32 { s.fold(); return s.crc.Sum32() }
func (s *snapStream) digest() []byte   { s.fold(); return s.sum.Sum(nil) }

// publishSnapshot writes one snapshot file atomically: tmp + CRC (+
// signature, in audit mode) + fsync + rename + directory fsync. The state
// encoders write through one block buffer; the file (under whatever the
// fault hooks wrapped it in), the checksum and the digest see blocks.
func (s *Server) publishSnapshot(final string, sh *shard, h snapHeader) error {
	start := s.obs.Clock()
	tmp := final + ".tmp"
	f, err := s.fs.create(tmp)
	if err != nil {
		return err
	}
	// The body is followed by its CRC32, so silent corruption (a flipped
	// bit in float data would otherwise decode fine) is detected at load
	// time; an audited snapshot then signs the SHA-256 of body and CRC.
	crc, sum := crc32.NewIEEE(), sha256.New()
	fan := io.MultiWriter(f, crc)
	if h.audited {
		fan = io.MultiWriter(f, crc, sum)
	}
	bw := bufio.NewWriterSize(fan, snapBlock)
	err = s.encodeSnapshot(bw, sh, h)
	if err == nil {
		err = bw.Flush() // the checksum is of the whole body
	}
	if err == nil {
		bw.Write(binary.LittleEndian.AppendUint32(nil, crc.Sum32()))
		err = bw.Flush() // the digest is of body and checksum
	}
	if err == nil && h.audited {
		sig := audit.SignContext(s.auditPriv, audit.ContextSnapshot, sum.Sum(nil))
		_, err = f.Write(sig[:])
	}
	s.obs.ObserveSnapshotEncode(start)
	start = s.obs.Clock()
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
	s.obs.ObserveSnapshotSync(start)
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
	h := snapHeader{audited: s.auditOn(), day: sh.closedThrough, pos: sh.wal.pos(), head: sh.wal.head()}
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
	start := s.obs.Clock()
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
	for _, ack := range acks {
		if err := <-ack; err != nil && firstErr == nil {
			firstErr = err
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
	s.obs.ObserveSnapshot(start, int64(day))
	return nil
}
