package serve

import (
	"errors"
	"fmt"
	"log/slog"
	"os"
	"path/filepath"
	"sync"
	"time"

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

// PersistConfig enables the crash-safe persistence layer, which is also
// the tamper-evident audit trail: every WAL frame is folded into a SHA-256
// hash chain (sealed at rotation and clean shutdown, linked across
// segments and into signed snapshots and manifests), every batch commits a
// Merkle root at append time, and the Proof/RankReceipt/VerifyAudit APIs
// answer from it. The ed25519 signing key lives at Dir/audit.key (created
// on first open; public half in Dir/audit.pub).
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

// RecoverInfo reports what Open reconstructed, so operators (it is the
// status report's persistence.recovery block) and the crash-matrix tests
// can see exactly how a restart resumed.
type RecoverInfo struct {
	// SnapshotLoaded is false on a fresh start or full-WAL replay; true
	// means a full manifest generation (every shard's snapshot) loaded.
	SnapshotLoaded bool `json:"snapshot_loaded"`
	// SnapshotDay is the closed-through day of the loaded snapshot (cut).
	SnapshotDay cert.Day `json:"snapshot_day"`
	// SkippedCuts names each newer cut passed over, as "file: reason": the
	// server serves an older generation than the newest on disk.
	SkippedCuts []string `json:"skipped_cuts"`
	// ReplayedRecords and ReplayedEvents count the WAL tail behind the
	// snapshot, summed over shards. Bounded-recovery tests assert on
	// ReplayedRecords.
	ReplayedRecords int `json:"replayed_records"`
	ReplayedEvents  int `json:"replayed_events"`
	// DroppedPartialBatches counts cross-shard batches discarded because
	// not every declared part reached its shard's log before the crash.
	// Such batches were never acknowledged to the submitter, so dropping
	// them whole restores the all-or-nothing Submit contract.
	DroppedPartialBatches int `json:"dropped_partial_batches"`
	// TornBytes is how much of a torn tail was truncated from the last
	// segment(s) (0 after a clean shutdown), summed over shards.
	TornBytes int64 `json:"torn_bytes"`
	// ClosedThrough is the last closed day after recovery — the
	// consistent cut: the maximum barrier any shard durably logged, with
	// lagging shards rolled forward (a logged barrier was acknowledged
	// only after every shard logged it, so a laggard's missing suffix is
	// always re-derivable from its own log).
	ClosedThrough cert.Day `json:"closed_through"`
	// BufferedEvents counts the recovered events of each day still open —
	// those the extractors hold in open-day state, so not the ones naming
	// an unknown user — summed over shards. A client resuming a stream
	// uses it to know which submissions were durable (batches are logged
	// all-or-nothing).
	BufferedEvents map[cert.Day]int `json:"buffered_events"`
	// Where the open's time went, in recovery order: loading the snapshot
	// generation (fallbacks included); walking and verifying every shard's
	// WAL stream; the batch completeness check, per-shard replay and
	// roll-forward to the cut; group fill, first publish and WAL attach.
	// The first three are dominated by their per-shard work, which runs on
	// one goroutine per shard.
	SnapshotLoadSeconds float64 `json:"snapshot_load_s"`
	WalkSeconds         float64 `json:"walk_s"`
	ReplaySeconds       float64 `json:"replay_s"`
	PublishSeconds      float64 `json:"publish_s"`
}

// Open builds a Server with persistence: it recovers any prior state from
// p.Dir (newest valid snapshot cut + WAL tail replay, truncating torn
// tails at the last valid frame), attaches the WAL appenders, and only
// then starts accepting work. An empty directory is a fresh start. A
// directory is tied to the users, start day, shard count and ingestor it
// was written with — snapshots refuse to load into a reshaped server, and
// the directory's file names are checked against the shard count so
// another layout is never misread. It is not tied to the groups or the
// deviation configuration: nothing derived from the measurements is
// stored, so recovery computes σ and the group state under the
// configuration it is given.
func Open(cfg Config, p PersistConfig) (*Server, *RecoverInfo, error) {
	return open(cfg, p, perShard)
}

// perShard runs body(k) for every shard k on a goroutine of its own and
// waits for all of them. Recovery's per-shard work goes through it: each
// shard's snapshot, WAL stream and replay touch only that shard's state
// and its own rows of reserved room in the shared field.
func perShard(n int, body func(k int)) {
	var wg sync.WaitGroup
	for k := 0; k < n; k++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			body(k)
		}()
	}
	wg.Wait()
}

// open is Open over a given per-shard runner (perShard; the recovery
// parity test passes the plain loop it replaced as the reference).
func open(cfg Config, p PersistConfig, fan func(n int, body func(k int))) (*Server, *RecoverInfo, error) {
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
	s.pcfg = &p
	s.fs = persistFS{hooks: p.Hooks}
	if s.auditPriv, err = audit.LoadOrCreateKey(p.Dir); err != nil {
		return nil, nil, err
	}
	s.auditIdx = make(map[uint64][]partAudit)

	info, err := s.recover(walDir, fan)
	if err != nil {
		return nil, nil, err
	}
	s.recovery = info
	s.start()
	slog.Info("serve: recovered",
		"dir", p.Dir, "shards", len(s.shards),
		"snapshot_loaded", info.SnapshotLoaded, "snapshot_day", int64(info.SnapshotDay),
		"skipped_cuts", info.SkippedCuts,
		"closed_through", int64(info.ClosedThrough),
		"replayed_records", info.ReplayedRecords, "replayed_events", info.ReplayedEvents,
		"dropped_partial_batches", info.DroppedPartialBatches, "torn_bytes", info.TornBytes,
		"snapshot_load_s", info.SnapshotLoadSeconds, "walk_s", info.WalkSeconds,
		"replay_s", info.ReplaySeconds, "publish_s", info.PublishSeconds)
	return s, info, nil
}

// checkLayout refuses, by name, every file of the snapshot, WAL and
// manifest families that is not a current-layout name for one of nshards
// shards: a snapshot or segment of a shard the configuration does not have
// or with no shard part at all, a manifest with one, and any name that does
// not parse. The stream listers skip such files, so serving around one
// would present a partial (or empty) state as if it were complete. scanCuts
// runs it, for Open and VerifyAudit, before any snapshot or stream is read.
func checkLayout(dir, walDir string, nshards int) error {
	for _, fam := range []struct {
		dir, prefix, suffix string
		sharded             bool
	}{
		{dir, "snapshot-", snapSuffix, true},
		{walDir, "wal-", ".log", true},
		{dir, manifestPrefix, manifestSuffix, false},
	} {
		files, err := listDir(fam.dir, fam.prefix, fam.suffix)
		if err != nil && !os.IsNotExist(err) {
			return err
		}
		for _, f := range files {
			name := filepath.Base(f.path)
			switch {
			case fam.sharded && f.shard >= nshards:
				return fmt.Errorf("serve: %s belongs to shard %d but only %d shards are configured", name, f.shard, nshards)
			case fam.sharded && f.shard < 0, !fam.sharded && f.shard != noShard:
				return fmt.Errorf("serve: %s is not a file name this layout writes — refusing the directory rather than serving around it", name)
			}
		}
	}
	return nil
}

// attachWAL positions one appender at the end of its walked stream and
// does what the read-only walk left undone: a final segment whose header
// never finished is removed and its sequence number reused (so an audit
// stream never shows a gap), a torn tail is truncated at the last valid
// frame, and the appender continues the surviving segment — or opens
// segment 1 of an empty stream. It returns the torn bytes dropped.
func (s *Server) attachWAL(walDir, prefix string, end streamEnd, stats *obs.ShardStats) (*wal, int64, error) {
	w := &wal{dir: walDir, prefix: prefix, fs: s.fs, segBytes: s.pcfg.SegmentBytes, policy: s.pcfg.Fsync, stats: stats,
		aud: walAudit{chain: audit.NewChain(end.head), tree: audit.NewTree(), frames: end.frames}}
	path, torn := walSegPath(walDir, prefix, end.seq), end.size-end.goodLen
	switch {
	case end.segments == 0:
		return w, 0, w.openSegment(1)
	case end.goodLen == 0:
		if err := s.fs.remove(path); err != nil {
			return nil, 0, err
		}
		return w, torn, w.openSegment(end.seq)
	case torn > 0:
		if err := s.fs.truncate(path, end.goodLen); err != nil {
			return nil, 0, err
		}
	}
	return w, torn, w.resumeSegment(end.seq, end.goodLen)
}

// recover restores the server from the data directory: the newest usable
// cut scanCuts finds, loaded, one walk per shard stream that
// verifies it, collects the tail behind the snapshot and rebuilds the
// proof index, a cross-shard batch completeness check,
// per-shard replay, a roll-forward of lagging shards to the consistent
// cut, the group state over every closed day, the first publish, and
// last the WAL appenders, attached at the end of each stream's last valid
// frame. Nothing is applied or published before every stream verified.
//
// The three per-shard steps — snapshot loads (each re-deriving its shard's
// windows over the loaded table), stream walks, replay — run through fan,
// one shard beside another: each touches its own shard and, in the shared
// field, only its own rows of room reserved before the fan-out.
// What crosses shards stays serial and in ascending shard order, so the
// outcome does not depend on scheduling: which error wins, the proof
// index, the completeness check, the roll-forward, group fill, publish.
func (s *Server) recover(walDir string, fan func(n int, body func(k int))) (*RecoverInfo, error) {
	info := &RecoverInfo{}
	n := len(s.shards)
	lap := time.Now()
	split := func(into *float64) {
		now := time.Now()
		*into, lap = now.Sub(lap).Seconds(), now
	}

	// 1. The newest usable cut loads: its generation's shard snapshots
	// load all-or-nothing (mixing generations would mix cuts), each
	// generation tried into a fresh core.
	tried := false
	cuts, err := scanCuts(s.pcfg.Dir, cutPolicy{
		pub: s.auditPub(), shards: n, fan: fan,
		read: func(k int, path string) (snapHeader, error) { return s.loadSnapshot(path, s.shards[k]) },
		before: func(m *manifestInfo) error {
			if tried {
				fresh, err := newCore(s.cfg)
				if err != nil {
					return err
				}
				s.adoptCore(fresh)
			}
			// Room for the generation's days is made once, before its loads:
			// a shard's stream never grows the field.
			tried = true
			s.sigma.Reserve(m.day)
			return nil
		},
	})
	if err != nil {
		return nil, err
	}
	info.SkippedCuts = make([]string, len(cuts.skipped)) // [] in the status report, not null
	for i, e := range cuts.skipped {
		info.SkippedCuts[i] = e.Error()
	}
	base, baseHWM := s.cfg.Start-1, uint64(0)
	if c := cuts.cut; c != nil {
		info.SnapshotLoaded, info.SnapshotDay, base, baseHWM = true, c.day, c.day, c.batchHWM
	}
	split(&info.SnapshotLoadSeconds)

	// 2. Walk every shard's stream once: the walk verifies it (the whole
	// surviving chain, anchored at the attested head of every snapshot the
	// scan read — a divergence fails the open here, before anything is
	// applied), the visitor keeps the records behind the snapshot position
	// for replay, refusing any event the ingestor cannot consume, and
	// collects every part frame's proof entry. A shard whose entire stream is missing while
	// a sibling has history is a loud failure: replaying around it would
	// silently serve a partial state.
	type indexed struct {
		batch uint64
		part  partAudit
	}
	type walked struct {
		tail     []walRecord
		end      streamEnd
		maxBatch uint64
		index    []indexed // every part frame's proof entry, in log order
		err      error
	}
	walks := make([]walked, n)
	fan(n, func(k int) {
		w := &walks[k]
		o := walkOpts{checks: cuts.checks[k]}
		if info.SnapshotLoaded {
			o.from = &cuts.hdrs[k].pos
		}
		w.end, w.err = walkStream(walDir, walShardPrefix(k), o, func(f *walkedFrame) error {
			if f.rec.typ == recEventsPart {
				w.maxBatch = max(w.maxBatch, f.rec.batchID)
				w.index = append(w.index, indexed{f.rec.batchID, partAudit{
					shard: k, pos: f.pos, parts: f.rec.parts, root: f.root, leaves: f.leaves,
				}})
			}
			if o.from != nil && f.pos.before(*o.from) {
				return nil
			}
			// Submit vets every event before it is logged, so a logged one
			// the ingestor refuses is a form no current writer produces.
			for _, e := range f.rec.events {
				if err := s.checker.CheckEvent(e); err != nil {
					return fmt.Errorf("serve: %s offset %d: logged event refused: %w",
						filepath.Base(walSegPath(walDir, walShardPrefix(k), f.pos.seg)), f.pos.off, err)
				}
			}
			w.tail = append(w.tail, f.rec)
			return nil
		})
	})
	// The proof index fills in ascending shard order, each shard's entries
	// in log order, whatever order the walks finished in.
	maxBatch, anySegs := uint64(0), false
	for k := range walks {
		w := &walks[k]
		if w.err != nil {
			return nil, w.err
		}
		for _, e := range w.index {
			s.auditIdx[e.batch] = append(s.auditIdx[e.batch], e.part)
		}
		w.index = nil
		maxBatch = max(maxBatch, w.maxBatch)
		anySegs = anySegs || w.end.segments > 0
	}
	if !info.SnapshotLoaded && anySegs {
		for k := range walks {
			if walks[k].end.segments == 0 {
				return nil, fmt.Errorf("serve: shard %d WAL is missing while other shards have history — history gap", k)
			}
		}
	}
	split(&info.WalkSeconds)

	// 3. Cross-shard batch completeness: a batch is durable only when all
	// of its declared parts are on disk. Incomplete batches (a crash
	// mid-fan-out) were never acknowledged; drop every surviving part.
	type batchCount struct {
		parts uint32
		seen  uint32
	}
	counts := make(map[uint64]*batchCount)
	for k := range walks {
		for _, rec := range walks[k].tail {
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
		}
	}
	dropped := make(map[uint64]bool)
	for id, c := range counts {
		if c.seen != c.parts {
			dropped[id] = true
		}
	}
	info.DroppedPartialBatches = len(dropped)
	// Seed batch numbering past everything ever issued. The walked frames'
	// max alone is not enough: after a clean shutdown right behind a snapshot
	// the tails are empty, and restarting IDs at 1 would collide with IDs
	// baked behind the snapshot positions — a later recovery forced to
	// fall back a manifest generation would scan frames from both boots
	// under one ID and die on the part-count conflict, making an otherwise
	// recoverable directory unrecoverable. The manifest's high-water mark
	// covers every ID behind the cut.
	s.nextBatch.Store(max(maxBatch, baseHWM))

	// 4. Apply each shard's records in its own log order, shards side by
	// side: room for every logged close is reserved first, so a shard's
	// window advance only writes its rows of it.
	reserve := base
	for k := range walks {
		for _, rec := range walks[k].tail {
			if rec.typ == recClose {
				reserve = max(reserve, rec.day)
			}
		}
	}
	s.sigma.Reserve(reserve)
	replays := make([]RecoverInfo, n)
	errs := make([]error, n)
	fan(n, func(k int) {
		errs[k] = s.replayShard(s.shards[k], walks[k].tail, dropped, &replays[k])
		walks[k].tail = nil
	})
	for k := range replays {
		if errs[k] != nil {
			return nil, errs[k]
		}
		info.ReplayedRecords += replays[k].ReplayedRecords
		info.ReplayedEvents += replays[k].ReplayedEvents
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

	split(&info.ReplaySeconds)

	// 6. Group state from the first day on, out of the shard tables (no
	// snapshot holds it): one fill of [Start, cut] by the kernel a live
	// close runs per day, and one advance of the group stream; then the
	// first publish over the rows the shards re-derived and replayed.
	if err := s.fillGroupDays(s.cfg.Start, cut); err != nil {
		return nil, err
	}
	if err := s.publish(cut); err != nil {
		return nil, err
	}

	// 7. Attach the appenders, dropping what a crash tore. (A dropped
	// partial batch stays in the proof index but is never provable: Proof
	// answers only for batches whose every declared part is indexed.)
	for k, sh := range s.shards {
		var torn int64
		if sh.wal, torn, err = s.attachWAL(walDir, walShardPrefix(k), walks[k].end, sh.stats); err != nil {
			return nil, err
		}
		info.TornBytes += torn
	}

	// 8. Snapshot cadence resumes from what is already covered.
	s.daysSinceSnap = int(cut - base)

	info.ClosedThrough = cut
	info.BufferedEvents = make(map[cert.Day]int)
	for _, sh := range s.shards {
		if sh.ing != nil {
			for d, n := range sh.ing.OpenDays() {
				info.BufferedEvents[d] += n
			}
		}
	}
	split(&info.PublishSeconds)
	return info, nil
}

// replayShard applies one shard's WAL tail in log order, counting into the
// shard's own info.
func (s *Server) replayShard(sh *shard, tail []walRecord, dropped map[uint64]bool, info *RecoverInfo) error {
	for _, rec := range tail {
		switch rec.typ {
		case recEventsPart:
			if dropped[rec.batchID] {
				continue
			}
			// Through the live path's own late filter and apply: a late
			// event, which no log the server wrote holds, is counted late as
			// live. (This replay's own decode, so filtered in place.)
			fresh, late := sh.fresh(rec.events)
			if err := sh.apply(fresh, late); err != nil {
				return err
			}
			info.ReplayedEvents += len(fresh)
		case recClose:
			if err := s.shardCloseDays(sh, rec.day); err != nil {
				return err
			}
		case recSeal, recReceipt:
			continue // audit bookkeeping, not state
		default:
			return fmt.Errorf("serve: unknown WAL record type %d", rec.typ)
		}
		info.ReplayedRecords++
	}
	return nil
}

// LastRecovery returns what Open reconstructed, or nil when the server
// was built without persistence.
func (s *Server) LastRecovery() *RecoverInfo { return s.recovery }
