package serve

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"strconv"
	"strings"

	"acobe/internal/audit"
	"acobe/internal/cert"
	"acobe/internal/obs"
)

// ErrPersistenceFailed wraps every persistence failure. Once any WAL
// append, snapshot, or prune operation fails the server fail-stops:
// memory is never allowed to run ahead of the log, so all later Submit
// and CloseDay calls return an error wrapping this sentinel instead of
// accepting events that would be lost on restart.
var ErrPersistenceFailed = errors.New("serve: persistence failed")

// PersistConfig enables the crash-safe persistence layer.
type PersistConfig struct {
	// Dir is the data directory. Snapshots and manifests live at its top
	// level, WAL segments under Dir/wal. Created if missing.
	Dir string
	// Fsync says when the WAL syncs (default FsyncClose).
	Fsync FsyncPolicy
	// SnapshotEvery is the snapshot cadence in closed days (default 30).
	SnapshotEvery int
	// SegmentBytes rotates WAL segments at this size (default 8 MiB).
	SegmentBytes int64
	// Audit enables the tamper-evident audit trail: version-2 WAL segments
	// carrying a SHA-256 hash chain over every frame (sealed at rotation
	// and clean shutdown, linked across segments and into signed snapshots
	// and manifests), per-batch Merkle roots committed at append time, and
	// the Proof/RankReceipt/VerifyAudit APIs. The ed25519 signing key lives
	// at Dir/audit.key (created on first open; public half in Dir/audit.pub).
	// A directory must be opened with the same Audit setting it was written
	// with — the segment format version is checked, so a mismatch fails
	// loudly instead of silently dropping (or inventing) the chain.
	Audit bool
	// Hooks intercept filesystem operations; tests inject faults here.
	Hooks Hooks
}

func (p *PersistConfig) withDefaults() PersistConfig {
	out := *p
	if out.SnapshotEvery <= 0 {
		out.SnapshotEvery = 30
	}
	if out.SegmentBytes <= 0 {
		out.SegmentBytes = 8 << 20
	}
	return out
}

// RecoverInfo reports what Open reconstructed, so operators (and the
// crash-matrix tests) can see exactly how a restart resumed.
type RecoverInfo struct {
	// SnapshotLoaded is false on a fresh start or full-WAL replay; true
	// means a full manifest generation (every shard's snapshot) loaded.
	SnapshotLoaded bool
	// SnapshotDay is the closed-through day of the loaded snapshot (cut).
	SnapshotDay cert.Day
	// ReplayedRecords and ReplayedEvents count the WAL tail behind the
	// snapshot, summed over shards. Bounded-recovery tests assert on
	// ReplayedRecords.
	ReplayedRecords int
	ReplayedEvents  int
	// RejectedEvents counts replayed events whose payload type the
	// configured ingestor cannot consume (a log written before payload
	// vetting, or under a different ingestor). They are dropped, exactly
	// as the live path rejects them before the WAL.
	RejectedEvents int
	// DroppedPartialBatches counts cross-shard batches discarded because
	// not every declared part reached its shard's log before the crash.
	// Such batches were never acknowledged to the submitter, so dropping
	// them whole restores the all-or-nothing Submit contract.
	DroppedPartialBatches int
	// TornBytes is how much of a torn tail was truncated from the last
	// segment(s) (0 after a clean shutdown), summed over shards.
	TornBytes int64
	// ClosedThrough is the last closed day after recovery — the
	// consistent cut: the maximum barrier any shard durably logged, with
	// lagging shards rolled forward (a logged barrier was acknowledged
	// only after every shard logged it, so a laggard's missing suffix is
	// always re-derivable from its own log).
	ClosedThrough cert.Day
	// BufferedEvents counts the recovered not-yet-closed events per day,
	// summed over shards. A client resuming a stream uses it to know
	// which submissions were durable (batches are logged all-or-nothing).
	BufferedEvents map[cert.Day]int
}

// Open builds a Server with persistence: it recovers any prior state from
// p.Dir (newest valid snapshot cut + WAL tail replay, truncating torn
// tails at the last valid frame), attaches the WAL appenders, and only
// then starts accepting work. An empty directory is a fresh start. The
// configuration must match the one the directory was written with (users,
// groups, start day, window, shard count) — snapshots refuse to load into
// a reshaped server, and the directory's file names are checked against
// the shard count so another layout is never misread.
func Open(cfg Config, p PersistConfig) (*Server, *RecoverInfo, error) {
	p = p.withDefaults()
	if p.Dir == "" {
		return nil, nil, errors.New("serve: persistence requires a data directory")
	}
	walDir := filepath.Join(p.Dir, "wal")
	if err := os.MkdirAll(walDir, 0o755); err != nil {
		return nil, nil, err
	}
	s, err := newCore(cfg)
	if err != nil {
		return nil, nil, err
	}
	for _, sh := range s.shards {
		if sh.ing == nil {
			continue
		}
		if _, ok := sh.ing.(StatefulIngestor); !ok {
			return nil, nil, fmt.Errorf("serve: ingestor %T does not support persistence (no SaveState/LoadState)", sh.ing)
		}
	}
	if err := checkLayout(p.Dir, walDir, len(s.shards)); err != nil {
		return nil, nil, err
	}
	s.pcfg = &p
	s.fs = persistFS{hooks: p.Hooks}
	if p.Audit {
		priv, err := audit.LoadOrCreateKey(p.Dir)
		if err != nil {
			return nil, nil, err
		}
		s.auditPriv = priv
		s.auditIdx = make(map[uint64][]partAudit)
	}

	info, err := s.recover(walDir)
	if err != nil {
		return nil, nil, err
	}
	s.recovery = info
	s.start()
	return s, info, nil
}

// shardOfName parses the shard index out of a per-shard artifact name
// (base<k>-rest, e.g. "wal-shard3-00000001.log" against "wal-shard").
func shardOfName(name, base string) (int, bool) {
	rest := strings.TrimPrefix(name, base)
	dash := strings.IndexByte(rest, '-')
	if rest == name || dash <= 0 {
		return 0, false
	}
	k, err := strconv.Atoi(rest[:dash])
	return k, err == nil && k >= 0
}

// checkLayout verifies the data directory's file names against the
// configured shard count. A directory written with a larger count, or by
// the unsharded server this layout replaced, must fail loudly: silently
// ignoring another layout's snapshots or WAL segments would serve a
// partial (or empty) state as if it were complete.
func checkLayout(dir, walDir string, nshards int) error {
	if err := checkLegacy(dir); err != nil {
		return err
	}
	check := func(d, base, suffix string) error {
		des, err := os.ReadDir(d)
		if err != nil {
			return err
		}
		for _, de := range des {
			name := de.Name()
			if de.IsDir() || !strings.HasSuffix(name, suffix) {
				continue
			}
			if k, ok := shardOfName(name, base); ok && k >= nshards {
				return fmt.Errorf("serve: %s belongs to shard %d but only %d shards are configured", name, k, nshards)
			}
		}
		return nil
	}
	if err := check(dir, "snapshot-shard", snapSuffix); err != nil {
		return err
	}
	return check(walDir, "wal-shard", ".log")
}

// walScan is the outcome of scanning one WAL stream: the decoded records
// in log order, how much torn tail was truncated, and where the appender
// should attach.
type walScan struct {
	recs    []walRecord
	torn    int64
	hasSegs bool
	// attached says the last surviving segment can be resumed at
	// (lastSeq, lastEnd); otherwise a fresh segment must be opened past
	// maxSeq (and past the snapshot position).
	attached bool
	lastSeq  uint64
	lastEnd  int64
	maxSeq   uint64
}

// scanWAL reads one WAL stream (one name prefix) from walDir, enforcing
// the layout invariants — consecutive segments, snapshot position on a
// frame boundary inside an existing segment, corruption only tolerated at
// the tail — and truncating any torn tail on disk. It returns the decoded
// records past pos in log order; the caller applies them (the split lets
// a sharded recovery check cross-shard batch completeness before applying
// anything).
func (s *Server) scanWAL(walDir, prefix string, pos walPos, snapLoaded bool) (*walScan, error) {
	sc := &walScan{}
	segs, err := listSegments(walDir, prefix)
	if err != nil {
		return nil, err
	}
	sc.hasSegs = len(segs) > 0
	if len(segs) > 0 {
		sc.maxSeq = segs[len(segs)-1]
	}
	if !snapLoaded && len(segs) > 0 && segs[0] != 1 {
		return nil, fmt.Errorf("serve: WAL starts at segment %d with no snapshot — history gap", segs[0])
	}
	if snapLoaded {
		// The loaded snapshot's position must land in an existing segment:
		// pruning never removes a retained snapshot's segment, so a
		// missing one means manual deletion or over-pruning, and replaying
		// around it would silently rebuild wrong state.
		found := false
		for _, seq := range segs {
			if seq == pos.seg {
				found = true
				break
			}
		}
		if !found {
			return nil, fmt.Errorf("serve: snapshot WAL position (segment %s%d) is missing from the log — history gap", prefix, pos.seg)
		}
	}
	// The replayed segments must be strictly consecutive: a missing middle
	// segment would otherwise be skipped silently and later segments would
	// replay on top of a hole.
	prevSeq := uint64(0)
	for _, seq := range segs {
		if snapLoaded && seq < pos.seg {
			continue // behind the snapshot; only an older snapshot needs it
		}
		if prevSeq != 0 && seq != prevSeq+1 {
			return nil, fmt.Errorf("serve: WAL segment %d follows %d — history gap", seq, prevSeq)
		}
		prevSeq = seq
	}
	for i, seq := range segs {
		path := walSegPath(walDir, prefix, seq)
		if snapLoaded && seq < pos.seg {
			continue // behind the snapshot; kept only for the older snapshot
		}
		data, err := os.ReadFile(path)
		if err != nil {
			return nil, err
		}
		gotSeq, frames, goodLen, hdrOK := parseSegment(data)
		last := i == len(segs)-1
		if !hdrOK || gotSeq != seq {
			if last && !hdrOK {
				// Crash during rotation: the new segment's header never
				// finished. Nothing in it was acknowledged; drop it — and
				// reuse its sequence number for the fresh segment, so an
				// audit stream's verify walk never sees a sequence gap.
				if err := s.fs.remove(path); err != nil {
					return nil, err
				}
				sc.torn += int64(len(data))
				sc.maxSeq = seq - 1
				break
			}
			return nil, fmt.Errorf("serve: WAL segment %s is corrupt (not the last segment — unrecoverable)", filepath.Base(path))
		}
		// The stream's format version must match the configured audit mode:
		// replaying an audited stream without its chain (or a plain stream
		// as if chained) would silently change the durability story.
		_, ver, _, hdrLen, _ := parseSegHeader(data)
		want := uint32(walVersion)
		if s.auditOn() {
			want = walAuditVersion
		}
		if ver != want {
			return nil, fmt.Errorf("serve: WAL segment %s has format version %d but the server is configured with audit %s — open the directory with the audit setting it was written under",
				filepath.Base(path), ver, map[bool]string{true: "on (version 2)", false: "off (version 1)"}[s.auditOn()])
		}
		from := int64(hdrLen)
		if snapLoaded && seq == pos.seg {
			from = pos.off
			if from > int64(goodLen) || !frameBoundary(frames, goodLen, from, hdrLen) {
				return nil, fmt.Errorf("serve: snapshot WAL position %d not on a frame boundary of %s", from, filepath.Base(path))
			}
		}
		for _, fr := range frames {
			if int64(fr.off) < from {
				continue
			}
			rec, err := decodeRecord(fr.payload)
			if err != nil {
				if !last {
					return nil, fmt.Errorf("serve: %s: %w", filepath.Base(path), err)
				}
				// Semantically invalid record at the tail: treat the log
				// as ending at the previous frame.
				goodLen = fr.off
				break
			}
			sc.recs = append(sc.recs, rec)
		}
		if torn := int64(len(data)) - int64(goodLen); torn > 0 {
			if !last {
				return nil, fmt.Errorf("serve: WAL segment %s has a torn tail but is not the last segment", filepath.Base(path))
			}
			if err := s.fs.truncate(path, int64(goodLen)); err != nil {
				return nil, err
			}
			sc.torn += torn
		}
		sc.lastSeq, sc.lastEnd = seq, int64(goodLen)
		sc.attached = last
	}
	return sc, nil
}

// restoreAudit re-walks one shard's surviving audit stream after scanWAL
// truncated any torn tail, verifying the whole chain (folds, seals,
// recomputed batch roots, cross-segment links, the loaded snapshot's
// attested head) and rebuilding the proof index as it goes. A divergence
// wraps ErrAuditChainBroken and fails the open: torn tails are a crash's
// honest damage and were already truncated, so whatever the tolerant walk
// still rejects — a seal that no longer matches its frames, a CRC fixed
// up over altered bytes, a forged header link — is history the chain
// contradicts. Returns the appender's audit state (chain head and frame
// count at the resume point) and the highest batch ID seen.
func (s *Server) restoreAudit(walDir, prefix string, shardIdx int, pos walPos, head audit.Head, snapLoaded bool, sc *walScan) (*walAudit, uint64, error) {
	var checks []headCheck
	if snapLoaded {
		checks = append(checks, headCheck{pos: pos, head: head, what: "the loaded snapshot"})
	}
	maxBatch := uint64(0)
	end, err := walkAuditStream(walDir, prefix, false, checks, func(rec walRecord, p walPos, pre audit.Head, root audit.Head, leaves []audit.Head) error {
		if rec.typ == recEventsPart {
			s.auditIdx[rec.batchID] = append(s.auditIdx[rec.batchID], partAudit{
				shard: shardIdx, pos: p, root: root, leaves: leaves,
			})
			if rec.batchID > maxBatch {
				maxBatch = rec.batchID
			}
		}
		return nil
	})
	if err != nil {
		return nil, 0, err
	}
	if sc.attached {
		if end.seq != sc.lastSeq || end.goodLen != sc.lastEnd {
			return nil, 0, fmt.Errorf("%w: audit walk of %s ends at segment %d offset %d, but recovery attached at segment %d offset %d",
				ErrAuditChainBroken, prefix, end.seq, end.goodLen, sc.lastSeq, sc.lastEnd)
		}
		return &walAudit{chain: audit.NewChain(end.head), tree: audit.NewTree(), frames: end.frames}, maxBatch, nil
	}
	// A fresh segment opens next (none survived, or a torn-header segment
	// was dropped): the chain continues from the walked end (zero on a
	// fresh stream) and the new segment's header links to it.
	return newWALAudit(end.head), maxBatch, nil
}

// attachWAL positions one appender at the end of its scanned stream:
// continue the last surviving segment, or start a new one past everything
// seen. aud is the stream's restored audit state (nil when audit is off).
func (s *Server) attachWAL(walDir, prefix string, sc *walScan, pos walPos, stats *obs.ShardStats, aud *walAudit) (*wal, error) {
	w := &wal{dir: walDir, prefix: prefix, fs: s.fs, segBytes: s.pcfg.SegmentBytes, policy: s.pcfg.Fsync, stats: stats, aud: aud}
	if sc.attached {
		if err := w.resumeSegment(sc.lastSeq, sc.lastEnd); err != nil {
			return nil, err
		}
		return w, nil
	}
	next := uint64(1)
	if sc.maxSeq >= next {
		next = sc.maxSeq + 1
	}
	if pos.seg >= next {
		next = pos.seg + 1
	}
	if err := w.openSegment(next); err != nil {
		return nil, err
	}
	return w, nil
}

// recover restores the server from the data directory: newest manifest
// whose every shard snapshot loads, per-shard WAL tail scans, a
// cross-shard batch completeness check, per-shard replay, a roll-forward
// of lagging shards to the consistent cut, the group state over the
// replayed days, and the first publish. It leaves every WAL appender
// positioned at the end of its last valid frame.
func (s *Server) recover(walDir string) (*RecoverInfo, error) {
	info := &RecoverInfo{}

	// 1. Newest manifest whose full generation loads wins. The shard
	// snapshots of one generation load all-or-nothing: mixing generations
	// would mix cuts.
	mans, err := listManifests(s.pcfg.Dir)
	if err != nil {
		return nil, err
	}
	base := s.cfg.Start - 1
	basePos := make([]walPos, len(s.shards))
	baseHead := make([]audit.Head, len(s.shards))
	baseHWM := uint64(0)
	loadErrs := make([]error, 0, len(mans))
	for i, m := range mans {
		if i > 0 {
			fresh, err := newCore(s.cfg)
			if err != nil {
				return nil, err
			}
			s.adoptCore(fresh)
		}
		mi, err := loadManifestInfo(m.path)
		if err != nil {
			loadErrs = append(loadErrs, fmt.Errorf("%s: %w", filepath.Base(m.path), err))
			continue
		}
		if mi.shards != len(s.shards) {
			// A config/layout mismatch, not corruption: falling back would
			// silently recover an older cut of a differently-sharded
			// directory.
			return nil, fmt.Errorf("serve: manifest %s pins %d shards, %d configured", filepath.Base(m.path), mi.shards, len(s.shards))
		}
		wantVer := uint32(manifestVersion)
		if s.auditOn() {
			wantVer = manifestAuditVersion
		}
		if mi.version != wantVer {
			// Same class of mismatch as the WAL format version: the
			// directory was written under a different audit setting.
			return nil, fmt.Errorf("serve: manifest %s has format version %d but the server is configured with audit %v — open the directory with the audit setting it was written under",
				filepath.Base(m.path), mi.version, s.auditOn())
		}
		if s.auditOn() && !mi.verifySig(s.auditPub()) {
			// The CRC passed but the signature does not: the manifest body
			// was altered and re-checksummed (or signed by another key).
			// Not a fallback case — attested history is contradicted.
			return nil, fmt.Errorf("%w: manifest %s signature invalid (key %s)", ErrAuditChainBroken, filepath.Base(m.path), audit.Fingerprint(s.auditPub()))
		}
		if mi.day != m.day {
			loadErrs = append(loadErrs, fmt.Errorf("%s: pinned day %d does not match its name", filepath.Base(m.path), int64(mi.day)))
			continue
		}
		day := mi.day
		ok := true
		for k, sh := range s.shards {
			path := snapPath(s.pcfg.Dir, snapShardPrefix(k), day)
			d, p, head, err := s.loadSnapshot(path, sh)
			if err != nil {
				loadErrs = append(loadErrs, fmt.Errorf("%s: %w", filepath.Base(path), err))
				ok = false
				break
			}
			if d != day {
				loadErrs = append(loadErrs, fmt.Errorf("%s: snapshot day %d does not match manifest day %d", filepath.Base(path), int64(d), int64(day)))
				ok = false
				break
			}
			if s.auditOn() && head != mi.heads[k] {
				// Both artifacts verified their own signatures yet disagree
				// about the chain head at the cut: one of them is a re-signed
				// forgery or a mixed-generation splice.
				return nil, fmt.Errorf("%w: %s attests a chain head that does not match manifest %s", ErrAuditChainBroken, filepath.Base(path), filepath.Base(m.path))
			}
			basePos[k] = p
			baseHead[k] = head
		}
		if !ok {
			continue
		}
		info.SnapshotLoaded = true
		info.SnapshotDay = day
		base = day
		baseHWM = mi.batchHWM
		break
	}
	if len(mans) > 0 && !info.SnapshotLoaded {
		return nil, fmt.Errorf("serve: no usable snapshot cut in %s: %w", s.pcfg.Dir, errors.Join(loadErrs...))
	}
	if !info.SnapshotLoaded && len(loadErrs) > 0 {
		fresh, err := newCore(s.cfg)
		if err != nil {
			return nil, err
		}
		s.adoptCore(fresh)
	}

	// 2. Scan every shard's WAL tail. A shard whose entire stream is
	// missing while a sibling has history is a loud failure: replaying
	// around it would silently serve a partial state.
	scans := make([]*walScan, len(s.shards))
	anySegs := false
	for k := range s.shards {
		pos := walPos{}
		if info.SnapshotLoaded {
			pos = basePos[k]
		}
		sc, err := s.scanWAL(walDir, walShardPrefix(k), pos, info.SnapshotLoaded)
		if err != nil {
			return nil, err
		}
		scans[k] = sc
		anySegs = anySegs || sc.hasSegs
		info.TornBytes += sc.torn
	}
	if !info.SnapshotLoaded && anySegs {
		for k, sc := range scans {
			if !sc.hasSegs {
				return nil, fmt.Errorf("serve: shard %d WAL is missing while other shards have history — history gap", k)
			}
		}
	}

	// 3. Cross-shard batch completeness: a batch is durable only when all
	// of its declared parts are on disk. Incomplete batches (a crash
	// mid-fan-out) were never acknowledged; drop every surviving part.
	type batchCount struct {
		parts uint32
		seen  uint32
	}
	counts := make(map[uint64]*batchCount)
	maxBatch := uint64(0)
	for _, sc := range scans {
		for _, rec := range sc.recs {
			if rec.typ != recEventsPart {
				continue
			}
			c := counts[rec.batchID]
			if c == nil {
				c = &batchCount{parts: rec.parts}
				counts[rec.batchID] = c
			} else if c.parts != rec.parts {
				return nil, fmt.Errorf("serve: batch %d declares conflicting part counts (%d vs %d)", rec.batchID, c.parts, rec.parts)
			}
			c.seen++
			if c.seen > c.parts {
				return nil, fmt.Errorf("serve: batch %d has more parts than its declared %d", rec.batchID, c.parts)
			}
			if rec.batchID > maxBatch {
				maxBatch = rec.batchID
			}
		}
	}
	dropped := make(map[uint64]bool)
	for id, c := range counts {
		if c.seen != c.parts {
			dropped[id] = true
		}
	}
	info.DroppedPartialBatches = len(dropped)
	// Seed batch numbering past everything ever issued. The tails' max
	// alone is not enough: after a clean shutdown right behind a snapshot
	// the tails are empty, and restarting IDs at 1 would collide with IDs
	// baked behind the snapshot positions — a later recovery forced to
	// fall back a manifest generation would scan frames from both boots
	// under one ID and die on the part-count conflict, making an otherwise
	// recoverable directory unrecoverable. The manifest's high-water mark
	// covers every ID behind the cut.
	if baseHWM > maxBatch {
		maxBatch = baseHWM
	}
	s.nextBatch.Store(maxBatch)

	// 4. Apply each shard's records in its own log order. A recEvents
	// frame is a whole batch in one frame: the unsharded server wrote
	// them, and a migrated directory (see Migrate) still holds them.
	for k, sh := range s.shards {
		for _, rec := range scans[k].recs {
			switch rec.typ {
			case recEvents:
				s.shardApplyEvents(sh, rec.events, info)
			case recEventsPart:
				if dropped[rec.batchID] {
					continue
				}
				s.shardApplyEvents(sh, rec.events, info)
			case recClose:
				s.sigma.Reserve(rec.day)
				if err := s.shardCloseDays(sh, rec.day); err != nil {
					return nil, err
				}
			case recSeal, recReceipt:
				continue // audit bookkeeping, not state
			default:
				return nil, fmt.Errorf("serve: unknown WAL record type %d", rec.typ)
			}
			info.ReplayedRecords++
		}
	}

	// 5. The consistent cut is the maximum barrier any shard logged: a
	// close is acknowledged only after every shard durably logged it, so
	// a lagging shard's missing barrier was either unacknowledged (safe
	// to apply — its events for those days are all on its own log) or
	// lost with an acknowledged barrier's sync, which the fsync-at-
	// barrier policy rules out. Rolling laggards forward is idempotent:
	// a later recovery replays the same records to the same cut.
	cut := s.cfg.Start - 1
	for _, sh := range s.shards {
		if sh.closedThrough > cut {
			cut = sh.closedThrough
		}
	}
	s.sigma.Reserve(cut)
	for _, sh := range s.shards {
		if err := s.shardCloseDays(sh, cut); err != nil {
			return nil, err
		}
	}

	// 6. Group state from the snapshot's base day forward (the exact
	// per-day operation order of a live close), then the first publish
	// over the rows the shards loaded and replayed.
	for d := base + 1; d <= cut; d++ {
		if err := s.fillGroupDay(d); err != nil {
			return nil, err
		}
	}
	if err := s.publish(cut); err != nil {
		return nil, err
	}

	// 7. Verify each shard's audit chain over everything that survived,
	// rebuild the proof index, and attach the appenders.
	for k, sh := range s.shards {
		pos := walPos{}
		if info.SnapshotLoaded {
			pos = basePos[k]
		}
		var aud *walAudit
		if s.auditOn() {
			var walked uint64
			var err error
			aud, walked, err = s.restoreAudit(walDir, walShardPrefix(k), k, pos, baseHead[k], info.SnapshotLoaded, scans[k])
			if err != nil {
				return nil, err
			}
			if walked > maxBatch {
				maxBatch = walked
				s.nextBatch.Store(maxBatch)
			}
		}
		var err error
		sh.wal, err = s.attachWAL(walDir, walShardPrefix(k), scans[k], pos, sh.stats, aud)
		if err != nil {
			return nil, err
		}
	}
	if s.auditOn() {
		// A dropped partial batch was never acknowledged; it must not be
		// provable either.
		for id := range dropped {
			delete(s.auditIdx, id)
		}
	}

	// 8. Snapshot cadence resumes from what is already covered.
	s.daysSinceSnap = int(cut - base)

	info.ClosedThrough = cut
	info.BufferedEvents = make(map[cert.Day]int)
	for _, sh := range s.shards {
		for d, evs := range sh.buffered {
			info.BufferedEvents[d] += len(evs)
		}
	}
	return info, nil
}

// frameBoundary reports whether off is a frame start or the end of the
// valid prefix. hdrLen is the segment's header length (format-version
// dependent).
func frameBoundary(frames []walFrame, goodLen int, off int64, hdrLen int) bool {
	if off == int64(hdrLen) || off == int64(goodLen) {
		return true
	}
	for _, fr := range frames {
		if int64(fr.off) == off {
			return true
		}
	}
	return false
}

// shardApplyEvents buffers replayed events into one shard through the
// same filters the live path uses.
func (s *Server) shardApplyEvents(sh *shard, events []Event, info *RecoverInfo) {
	for _, e := range events {
		if s.checkEvent(e) != nil {
			// The ingestor cannot consume this payload type (logged
			// before payload vetting existed, or a foreign log). Drop
			// it exactly as the live path now rejects it pre-WAL —
			// failing recovery would make the directory permanently
			// unrecoverable over one bad batch.
			info.RejectedEvents++
			continue
		}
		d := e.Day()
		if d <= sh.closedThrough {
			// Cannot happen for a log the server wrote (events are
			// filtered before logging); tolerate it the same way.
			sh.late.Add(1)
			continue
		}
		sh.buffered[d] = append(sh.buffered[d], e)
		sh.ingested.Add(1)
		info.ReplayedEvents++
	}
}

// LastRecovery returns what Open reconstructed, or nil when the server
// was built without persistence.
func (s *Server) LastRecovery() *RecoverInfo { return s.recovery }
