package serve

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/json"
	"fmt"
	"hash"
	"hash/crc32"
	"io"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"

	"acobe/internal/audit"
	"acobe/internal/cert"
	"acobe/internal/persist"
)

// Snapshots bound recovery cost: a snapshot captures one shard's complete
// ingest state at a day-close barrier (measurement table, extractor
// first-seen trackers, streaming deviation windows, buffered open-day
// events, counters) plus the WAL position it corresponds to, so a restart
// loads the newest valid snapshot and replays only the WAL tail behind it.
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
)

// snapShardPrefix names shard k's snapshot series.
func snapShardPrefix(k int) string { return fmt.Sprintf("snapshot-shard%d-", k) }

func snapPath(dir, prefix string, day cert.Day) string {
	return filepath.Join(dir, fmt.Sprintf("%s%08d%s", prefix, int64(day), snapSuffix))
}

// crcWriter checksums everything written through it. The snapshot body is
// followed by its CRC32 so silent corruption (a flipped bit in float
// data would otherwise decode fine) is detected at load time.
type crcWriter struct {
	w   io.Writer
	crc uint32
}

func (c *crcWriter) Write(p []byte) (int, error) {
	n, err := c.w.Write(p)
	c.crc = crc32.Update(c.crc, crc32.IEEETable, p[:n])
	return n, err
}

// crcReader checksums everything read through it.
type crcReader struct {
	r   io.Reader
	crc uint32
}

func (c *crcReader) Read(p []byte) (int, error) {
	n, err := c.r.Read(p)
	c.crc = crc32.Update(c.crc, crc32.IEEETable, p[:n])
	return n, err
}

// digestWriter SHA-256-hashes everything written through it (the
// message an audit-mode snapshot's trailing signature covers).
type digestWriter struct {
	w io.Writer
	h hash.Hash
}

func (d *digestWriter) Write(p []byte) (int, error) {
	n, err := d.w.Write(p)
	d.h.Write(p[:n])
	return n, err
}

// digestReader SHA-256-hashes everything read through it.
type digestReader struct {
	r io.Reader
	h hash.Hash
}

func (d *digestReader) Read(p []byte) (int, error) {
	n, err := d.r.Read(p)
	d.h.Write(p[:n])
	return n, err
}

// snapEntry is one snapshot (or manifest) file found on disk.
type snapEntry struct {
	day  cert.Day
	path string
}

// listNumbered returns dir's prefix<number>suffix files, parsed; files
// whose middle part is not purely numeric are skipped.
func listNumbered(dir, prefix, suffix, skipSuffix string) ([]snapEntry, error) {
	des, err := os.ReadDir(dir)
	if err != nil {
		return nil, err
	}
	var out []snapEntry
	for _, de := range des {
		name := de.Name()
		if de.IsDir() || !strings.HasPrefix(name, prefix) || !strings.HasSuffix(name, suffix) ||
			(skipSuffix != "" && strings.HasSuffix(name, skipSuffix)) {
			continue
		}
		num := strings.TrimSuffix(strings.TrimPrefix(name, prefix), suffix)
		d, err := strconv.ParseInt(num, 10, 64)
		if err != nil {
			continue
		}
		out = append(out, snapEntry{day: cert.Day(d), path: filepath.Join(dir, name)})
	}
	return out, nil
}

// listSnapshots returns the published snapshots with the given name
// prefix, newest first.
func listSnapshots(dir, prefix string) ([]snapEntry, error) {
	out, err := listNumbered(dir, prefix, snapSuffix, snapTempSuffix)
	if err != nil {
		return nil, err
	}
	sort.Slice(out, func(i, j int) bool { return out[i].day > out[j].day })
	return out, nil
}

// listSegments returns the WAL segment sequence numbers present in dir
// under the given name prefix, ascending.
func listSegments(dir, prefix string) ([]uint64, error) {
	des, err := os.ReadDir(dir)
	if err != nil {
		return nil, err
	}
	var out []uint64
	for _, de := range des {
		name := de.Name()
		if de.IsDir() || !strings.HasPrefix(name, prefix) || !strings.HasSuffix(name, ".log") {
			continue
		}
		seq, err := strconv.ParseUint(strings.TrimSuffix(strings.TrimPrefix(name, prefix), ".log"), 10, 64)
		if err != nil {
			continue
		}
		out = append(out, seq)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out, nil
}

// encodeSnapshot writes one shard's state. It runs on the shard's
// goroutine inside a snapshot round, while the coordinator waits: the
// shard is the only writer of its ingest state, nobody writes the shared
// field or the group state until the round ends, and queries only read
// published headers — so no locks are needed. Shard 0's snapshot carries
// the global group state of a grouped server.
func (s *Server) encodeSnapshot(w io.Writer, sh *shard, day cert.Day, pos walPos, head audit.Head) error {
	withGroups := s.snapshotsGroups(sh)
	var ing StatefulIngestor
	if sh.ing != nil {
		var ok bool
		ing, ok = sh.ing.(StatefulIngestor)
		if !ok {
			return fmt.Errorf("serve: ingestor %T cannot snapshot (no SaveState)", sh.ing)
		}
	}
	ver := s.snapVer()
	pw := persist.NewWriter(w)
	pw.Magic(snapMagic, ver)
	pw.I64(int64(day))
	pw.U64(pos.seg)
	pw.I64(pos.off)
	if ver == snapAuditVersion {
		// The chain head at pos: this snapshot attests the exact WAL
		// prefix it summarizes, anchoring proofs past future pruning.
		pw.Bytes(head[:])
	}
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
	days := make([]cert.Day, 0, len(sh.buffered))
	for d := range sh.buffered {
		days = append(days, d)
	}
	sort.Slice(days, func(i, j int) bool { return days[i] < days[j] })
	pw.U64(uint64(len(days)))
	for _, d := range days {
		pw.I64(int64(d))
		body, err := json.Marshal(sh.buffered[d])
		if err != nil {
			return fmt.Errorf("serve: encode buffered events: %w", err)
		}
		pw.Bytes(body)
	}
	pw.Magic(snapTrailer, ver)
	return pw.Err()
}

// snapshotsGroups reports whether sh's snapshots carry the group state.
func (s *Server) snapshotsGroups(sh *shard) bool { return sh.idx == 0 && s.grp != nil }

// snapVer returns the snapshot format version this server writes (and
// the only one it accepts — an audit-mode mismatch must be loud, never a
// silent reinterpretation).
func (s *Server) snapVer() uint32 {
	if s.auditOn() {
		return snapAuditVersion
	}
	return snapVersion
}

// loadSnapshot restores a snapshot file into a freshly constructed
// shard (and, for shard 0, the server's group state). Any decoding or
// validation failure leaves the caller free to fall back to an older
// snapshot (the state is only mutated after the header validates, and the
// caller rebuilds the core per attempt).
func (s *Server) loadSnapshot(path string, sh *shard) (day cert.Day, pos walPos, head audit.Head, err error) {
	withGroups := s.snapshotsGroups(sh)
	var ing StatefulIngestor
	if sh.ing != nil {
		var ok bool
		ing, ok = sh.ing.(StatefulIngestor)
		if !ok {
			return 0, walPos{}, head, fmt.Errorf("serve: ingestor %T cannot restore (no LoadState)", sh.ing)
		}
	}
	f, err := os.Open(path)
	if err != nil {
		return 0, walPos{}, head, err
	}
	defer f.Close()
	ver := s.snapVer()
	// In audit mode every byte before the trailing signature (body and
	// CRC alike) feeds a SHA-256 the signature is checked against.
	var src io.Reader = f
	var dg *digestReader
	if ver == snapAuditVersion {
		dg = &digestReader{r: f, h: sha256.New()}
		src = dg
	}
	cr := &crcReader{r: src}
	pr := persist.NewReader(cr)
	if v := pr.Magic(snapMagic); pr.Err() == nil && v != ver {
		return 0, walPos{}, head, fmt.Errorf("serve: snapshot version %d, want %d (audit mode mismatch?)", v, ver)
	}
	day = cert.Day(pr.I64())
	pos.seg = pr.U64()
	pos.off = pr.I64()
	if ver == snapAuditVersion {
		hb := pr.Bytes()
		if pr.Err() == nil && len(hb) != audit.HeadSize {
			return 0, walPos{}, head, fmt.Errorf("serve: snapshot chain head is %d bytes, want %d", len(hb), audit.HeadSize)
		}
		copy(head[:], hb)
	}
	ingested := pr.I64()
	late := pr.I64()
	users := pr.Strings()
	groups := pr.Strings()
	start := cert.Day(pr.I64())
	window := pr.Int()
	if err := pr.Err(); err != nil {
		return 0, walPos{}, head, err
	}
	if !equalStrings(users, sh.users) || !equalStrings(groups, s.cfg.Groups) {
		return 0, walPos{}, head, fmt.Errorf("serve: snapshot users/groups do not match configuration")
	}
	if start != s.cfg.Start || window != s.cfg.Deviation.Window {
		return 0, walPos{}, head, fmt.Errorf("serve: snapshot shape (start %v, window %d) does not match configuration (%v, %d)",
			start, window, s.cfg.Start, s.cfg.Deviation.Window)
	}
	if ing != nil {
		if err := ing.LoadState(cr); err != nil {
			return 0, walPos{}, head, err
		}
		if err := sh.ind.LoadState(cr); err != nil {
			return 0, walPos{}, head, err
		}
	}
	hasGroups := pr.Bool()
	if pr.Err() == nil && hasGroups != withGroups {
		return 0, walPos{}, head, fmt.Errorf("serve: snapshot group presence does not match configuration")
	}
	if err := pr.Err(); err != nil {
		return 0, walPos{}, head, err
	}
	if hasGroups {
		if err := s.grpTbl.LoadState(cr); err != nil {
			return 0, walPos{}, head, err
		}
		if err := s.grp.LoadState(cr); err != nil {
			return 0, walPos{}, head, err
		}
	}
	ndays := pr.Len()
	for i := 0; i < ndays && pr.Err() == nil; i++ {
		d := cert.Day(pr.I64())
		body := pr.Bytes()
		if pr.Err() != nil {
			break
		}
		var evs []Event
		if err := json.Unmarshal(body, &evs); err != nil {
			return 0, walPos{}, head, fmt.Errorf("serve: snapshot buffered events: %w", err)
		}
		sh.buffered[d] = evs
	}
	if v := pr.Magic(snapTrailer); pr.Err() == nil && v != ver {
		return 0, walPos{}, head, fmt.Errorf("serve: snapshot trailer version %d unsupported", v)
	}
	if err := pr.Err(); err != nil {
		return 0, walPos{}, head, err
	}
	// The stored CRC covers everything up to and including the trailer. It
	// is read from src — past the CRC accumulator, but (in audit mode)
	// through the digest, because the signature covers body AND CRC.
	want := cr.crc
	var stored [4]byte
	if _, err := io.ReadFull(src, stored[:]); err != nil {
		return 0, walPos{}, head, fmt.Errorf("serve: snapshot checksum missing: %w", err)
	}
	if got := binary.LittleEndian.Uint32(stored[:]); got != want {
		return 0, walPos{}, head, fmt.Errorf("serve: snapshot checksum mismatch (stored %08x, computed %08x)", got, want)
	}
	if ver == snapAuditVersion {
		var sig [audit.SigSize]byte
		if _, err := io.ReadFull(f, sig[:]); err != nil {
			return 0, walPos{}, head, fmt.Errorf("serve: snapshot signature missing: %w", err)
		}
		var d [sha256.Size]byte
		dg.h.Sum(d[:0])
		if !audit.VerifyContext(s.auditPub(), sig, audit.ContextSnapshot, d[:]) {
			return 0, walPos{}, head, fmt.Errorf("serve: snapshot signature invalid (key %s)", audit.Fingerprint(s.auditPub()))
		}
		if n, _ := f.Read(stored[:1]); n != 0 {
			return 0, walPos{}, head, fmt.Errorf("serve: snapshot has trailing bytes after signature")
		}
	}
	sh.closedThrough = day
	sh.ingested.Store(ingested)
	sh.late.Store(late)
	return day, pos, head, nil
}

// readSnapshotPos reads only a snapshot's header, for pruning decisions.
func readSnapshotPos(path string) (day cert.Day, pos walPos, err error) {
	f, err := os.Open(path)
	if err != nil {
		return 0, walPos{}, err
	}
	defer f.Close()
	pr := persist.NewReader(f)
	pr.Magic(snapMagic)
	day = cert.Day(pr.I64())
	pos.seg = pr.U64()
	pos.off = pr.I64()
	return day, pos, pr.Err()
}

// publishSnapshot writes one snapshot file atomically: tmp + CRC (+
// signature, in audit mode) + fsync + rename + directory fsync.
func (s *Server) publishSnapshot(final string, sh *shard, day cert.Day, pos walPos, head audit.Head) error {
	tmp := final + ".tmp"
	f, err := s.fs.create(tmp)
	if err != nil {
		return err
	}
	var out io.Writer = f
	var dg *digestWriter
	if s.auditOn() {
		dg = &digestWriter{w: f, h: sha256.New()}
		out = dg
	}
	cw := &crcWriter{w: out}
	err = s.encodeSnapshot(cw, sh, day, pos, head)
	if err == nil {
		var sum [4]byte
		binary.LittleEndian.PutUint32(sum[:], cw.crc)
		_, err = out.Write(sum[:])
	}
	if err == nil && dg != nil {
		var d [sha256.Size]byte
		dg.h.Sum(d[:0])
		sig := audit.SignContext(s.auditPriv, audit.ContextSnapshot, d[:])
		_, err = f.Write(sig[:])
	}
	if err == nil {
		err = f.Sync()
	}
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		os.Remove(tmp) // best effort; recovery ignores .tmp files anyway
		return err
	}
	if err := s.fs.rename(tmp, final); err != nil {
		return err
	}
	// The rename must be durable before pruning anything the new snapshot
	// obsoletes: without the directory fsync a power loss could keep the
	// prunes while dropping the publish, leaving a pruned WAL with no (or
	// only an older, position-dangling) snapshot.
	return s.fs.syncDir(s.pcfg.Dir)
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
	pos := sh.wal.pos()
	head := sh.wal.head()
	sh.snapHead = head
	day := sh.closedThrough
	if err := s.publishSnapshot(snapPath(s.pcfg.Dir, snapShardPrefix(sh.idx), day), sh, day, pos, head); err != nil {
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

func equalStrings(a, b []string) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}
