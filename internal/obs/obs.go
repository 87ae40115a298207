// Package obs is the serving daemon's per-stage instrumentation: atomic
// counters and fixed-bucket log-scale latency histograms cheap enough to
// sit on the ingest hot path. The design goals, in order:
//
//   - Allocation-free recording. Observe and Add are a handful of atomic
//     adds on fixed-layout arrays — no maps, no interfaces, no time
//     formatting — so instrumented code benchmarks with 0 allocs/op added
//     and single-digit-nanosecond-per-atomic cost (BenchmarkObserve pins
//     the number).
//   - Always on. Every server records: New and Open create an Observer
//     when the config names none, so a hook is a clock read and a few
//     atomic adds, never a branch on whether anyone is listening.
//   - Mergeable across shards. Each shard records into its own ShardStats
//     cell; a scrape snapshots every cell and folds the histograms
//     together with plain addition, so per-shard recording never contends
//     and the merged view counts every event exactly once.
//
// The scrape path (Snapshot, WritePrometheus) allocates freely — it runs
// a few times a minute, not per event.
package obs

import (
	"math"
	"math/bits"
	"sync"
	"sync/atomic"
	"time"
)

// histBuckets is the fixed bucket count. Bucket 0 holds zero-duration
// observations; bucket i (i ≥ 1) holds durations in [2^(i-1), 2^i) ns.
// Bucket 39 tops out at ~9.1 minutes and absorbs everything longer.
const histBuckets = 40

// Histogram is a fixed-layout log2-bucket latency histogram. The zero
// value is ready to use; all methods are safe for concurrent use.
type Histogram struct {
	count   atomic.Uint64
	sum     atomic.Uint64 // nanoseconds
	max     atomic.Uint64 // nanoseconds
	buckets [histBuckets]atomic.Uint64
}

// Observe records one duration. Negative durations clamp to zero.
func (h *Histogram) Observe(d time.Duration) {
	ns := uint64(0)
	if d > 0 {
		ns = uint64(d)
	}
	i := bits.Len64(ns)
	if i >= histBuckets {
		i = histBuckets - 1
	}
	h.buckets[i].Add(1)
	h.count.Add(1)
	h.sum.Add(ns)
	for {
		cur := h.max.Load()
		if ns <= cur || h.max.CompareAndSwap(cur, ns) {
			break
		}
	}
}

// Snapshot copies the histogram's current state. The copy is not an
// atomic cut across buckets — a scrape racing an Observe may see the
// bucket but not yet the sum — which is fine for monitoring.
func (h *Histogram) Snapshot() HistogramSnapshot {
	var s HistogramSnapshot
	s.Count = h.count.Load()
	s.SumNanos = h.sum.Load()
	s.MaxNanos = h.max.Load()
	for i := range h.buckets {
		s.Buckets[i] = h.buckets[i].Load()
	}
	return s
}

// HistogramSnapshot is a point-in-time copy of a Histogram, the unit the
// scrape layer merges and summarizes.
type HistogramSnapshot struct {
	Count    uint64
	SumNanos uint64
	MaxNanos uint64
	Buckets  [histBuckets]uint64
}

// Merge folds another snapshot into s (plain addition per bucket; max of
// maxes). Merging the per-shard histograms of one stage yields the
// stage's global histogram with every observation counted exactly once.
func (s *HistogramSnapshot) Merge(o HistogramSnapshot) {
	s.Count += o.Count
	s.SumNanos += o.SumNanos
	if o.MaxNanos > s.MaxNanos {
		s.MaxNanos = o.MaxNanos
	}
	for i := range s.Buckets {
		s.Buckets[i] += o.Buckets[i]
	}
}

// bucketBounds returns bucket i's half-open duration range [lo, hi) in
// nanoseconds.
func bucketBounds(i int) (lo, hi float64) {
	if i == 0 {
		return 0, 1
	}
	return math.Ldexp(1, i-1), math.Ldexp(1, i)
}

// Quantile estimates the q-quantile (0 ≤ q ≤ 1) by linear interpolation
// inside the bucket the rank falls in. Returns 0 for an empty histogram.
func (s HistogramSnapshot) Quantile(q float64) time.Duration {
	if s.Count == 0 {
		return 0
	}
	if q < 0 {
		q = 0
	} else if q > 1 {
		q = 1
	}
	rank := q * float64(s.Count)
	cum := 0.0
	for i, n := range s.Buckets {
		if n == 0 {
			continue
		}
		next := cum + float64(n)
		if rank <= next {
			lo, hi := bucketBounds(i)
			// The top bucket absorbs everything past the fixed range; its
			// real upper edge is the observed max.
			if i == histBuckets-1 && float64(s.MaxNanos) > lo {
				hi = float64(s.MaxNanos)
			}
			frac := (rank - cum) / float64(n)
			est := lo + frac*(hi-lo)
			if m := float64(s.MaxNanos); est > m && m > 0 {
				est = m
			}
			return time.Duration(est)
		}
		cum = next
	}
	return time.Duration(s.MaxNanos)
}

// Mean returns the average observed duration.
func (s HistogramSnapshot) Mean() time.Duration {
	if s.Count == 0 {
		return 0
	}
	return time.Duration(float64(s.SumNanos) / float64(s.Count))
}

// Stage names, used as the histogram label in every exposition format.
// They are stable API: dashboards key on them.
const (
	StageDecode        = "ingest_decode"   // one HTTP ingest body: read + decode + vet, before Submit
	StageSubmit        = "ingest_submit"   // Submit end to end: validate + enqueue + WAL ack
	StageEnqueue       = "ingest_enqueue"  // time blocked on a full shard queue (backpressure)
	StageApply         = "ingest_apply"    // per-shard batch drain: late filter + WAL append + extraction into the open day
	StageClose         = "day_close"       // day-close barrier end to end, caller-observed
	StageCloseBarrier  = "close_barrier"   // per shard and close: the barrier's wait behind queued batches + WAL barrier + fsync
	StageCloseFinalize = "close_finalize"  // per shard and close: the extractor writing the closed days into its table
	StageCloseAdvance  = "close_advance"   // per shard and close: the deviation windows sliding over the closed days
	StageMerge         = "close_merge"     // one closed day's group fill, after every shard acked the barrier
	StageMergePublish  = "merge_publish"   // publishing closed days: extend, freeze headers, rebind, pointer store
	StageSnapshot      = "snapshot"        // one snapshot round (every shard's snapshot plus the manifest)
	StageSnapEncode    = "snapshot_encode" // one shard's snapshot file: encode + checksum + digest + write
	StageSnapSync      = "snapshot_sync"   // making that file durable: fsync + rename + directory fsync
	StageRank          = "rank"            // one ranked-list query
	StageRankFill      = "rank_fill"       // the part of a rank spent scoring user-days no earlier rank of this model had scored
	StageRetrain       = "retrain"         // one full retrain: setup + fit + swap
	StageRetrainClone  = "retrain_clone"   // a retrain's setup: load the published headers, build the detector
	StageWALFsync      = "wal_fsync"       // one WAL fsync (per shard)
	StageWALHash       = "wal_hash"        // audit hashing per WAL append: Merkle leaves + root + chain fold (per shard)
)

// stageOrder fixes the exposition order of the stage histograms.
var stageOrder = []string{
	StageDecode, StageSubmit, StageEnqueue, StageApply, StageClose,
	StageCloseBarrier, StageCloseFinalize, StageCloseAdvance, StageMerge, StageMergePublish,
	StageSnapshot, StageSnapEncode, StageSnapSync, StageRank, StageRankFill, StageRetrain, StageRetrainClone, StageWALFsync, StageWALHash,
}

// Counter names exposed in Snapshot.Counters and /metrics.
const (
	CounterEventsSubmitted  = "events_submitted_total"
	CounterBatchesSubmitted = "batches_submitted_total"
	CounterDayCloses        = "day_closes_total"
	CounterSnapshots        = "snapshots_total"
	CounterLastSnapshotDay  = "last_snapshot_day"
	CounterRetrains         = "retrains_total"
	CounterRetrainFailures  = "retrain_failures_total"
	// Score columns (one aspect × one day, every user) that ranks had to
	// score, and that ranks found already scored by an earlier rank of the
	// same model.
	CounterRankColumnsScored = "rank_columns_scored_total"
	CounterRankColumnsReused = "rank_columns_reused_total"
	// CounterMergePendingDays is a last-value gauge: closed days whose
	// group fill is still to run before the close publishes.
	CounterMergePendingDays = "merge_pending_days"
	// Events of HTTP ingest bodies that were not in the wire codec's
	// canonical shape and were decoded by encoding/json: a shipper that
	// escapes, reorders keys or pretty-prints shows up here.
	CounterDecodeFallback = "ingest_decode_fallback_events_total"
	// Events naming a user outside the roster, skipped by the extractor
	// (summed over shards; since this process started, replay included).
	// The server overlays it: only the shards know.
	CounterUnknownUserEvents = "serve_unknown_user_events_total"
)

// ShardStats is one shard's private recording cell. The owning shard
// goroutine (and the WAL appender it owns) writes it without contention;
// scrapes read it atomically.
type ShardStats struct {
	Apply Histogram // per-batch apply latency on this shard
	Fsync Histogram // WAL fsync latency on this shard
	Hash  Histogram // audit hashing per WAL append on this shard
	// One observation per close barrier each: see the close_* stages.
	Barrier, Finalize, Advance Histogram

	queueHWM  atomic.Int64
	walBytes  atomic.Int64
	walFrames atomic.Int64
	walFsyncs atomic.Int64
}

// NoteQueueDepth raises the shard's queue high-water mark to depth.
func (ss *ShardStats) NoteQueueDepth(depth int) {
	d := int64(depth)
	for {
		cur := ss.queueHWM.Load()
		if d <= cur || ss.queueHWM.CompareAndSwap(cur, d) {
			return
		}
	}
}

// AddWALAppend records one appended frame of n bytes.
func (ss *ShardStats) AddWALAppend(n int) {
	ss.walBytes.Add(int64(n))
	ss.walFrames.Add(1)
}

// ObserveFsync records one WAL fsync and its duration.
func (ss *ShardStats) ObserveFsync(start time.Time) {
	ss.walFsyncs.Add(1)
	ss.Fsync.Observe(time.Since(start))
}

// ObserveWALHash records one append's audit hashing (Merkle leaves +
// root + chain fold) and its duration.
func (ss *ShardStats) ObserveWALHash(start time.Time) {
	ss.Hash.Observe(time.Since(start))
}

// ClosePhases is where one close barrier's time went on one shard — see
// the close_* stages — and how many events the closed days held there.
type ClosePhases struct {
	Barrier, Finalize, Advance time.Duration
	Events                     int
}

// Merge folds another shard's phases of the same close into p: the shards
// run side by side, so the close waited for the slowest of each phase, and
// the events add up.
func (p *ClosePhases) Merge(o ClosePhases) {
	p.Barrier = max(p.Barrier, o.Barrier)
	p.Finalize = max(p.Finalize, o.Finalize)
	p.Advance = max(p.Advance, o.Advance)
	p.Events += o.Events
}

// ObserveClose records one close barrier's phases on this shard.
func (ss *ShardStats) ObserveClose(p ClosePhases) {
	ss.Barrier.Observe(p.Barrier)
	ss.Finalize.Observe(p.Finalize)
	ss.Advance.Observe(p.Advance)
}

// ObserveApply records one batch apply.
func (ss *ShardStats) ObserveApply(start time.Time) {
	ss.Apply.Observe(time.Since(start))
}

// Observer is one server's instrumentation root: global per-stage
// histograms and counters, plus one ShardStats cell per shard. Every server
// has one — its own, unless the config names one made with NewObserver —
// and is scraped through the server (which overlays live gauges the
// observer cannot see, like instantaneous queue depths).
//
// An Observer belongs to one server at a time: per-shard cells are sized
// by the server on startup, and counters accumulate across a recovery's
// core rebuilds (recovery work is real work).
type Observer struct {
	start time.Time

	decode       Histogram
	submit       Histogram
	enqueue      Histogram
	close        Histogram
	merge        Histogram
	mergePublish Histogram
	snapshot     Histogram
	snapEncode   Histogram
	snapSync     Histogram
	rank         Histogram
	rankFill     Histogram
	retrain      Histogram
	retrainClone Histogram

	eventsSubmitted  atomic.Int64
	batchesSubmitted atomic.Int64
	decodeFallback   atomic.Int64
	dayCloses        atomic.Int64
	snapshots        atomic.Int64
	lastSnapshotDay  atomic.Int64
	retrains         atomic.Int64
	retrainFailures  atomic.Int64
	columnsScored    atomic.Int64
	columnsReused    atomic.Int64
	pendingMergeDays atomic.Int64

	mu     sync.Mutex
	shards []*ShardStats
}

// NewObserver returns an empty observer; uptime counts from here.
func NewObserver() *Observer {
	return &Observer{start: time.Now()}
}

// ShardStats returns shard k's recording cell, sizing the per-shard table
// to n cells on first use. Cells persist across calls (and across a
// recovery's core rebuilds) so counters are never silently reset.
func (o *Observer) ShardStats(k, n int) *ShardStats {
	o.mu.Lock()
	defer o.mu.Unlock()
	for len(o.shards) < n {
		o.shards = append(o.shards, &ShardStats{})
	}
	return o.shards[k]
}

// ObserveDecode records one HTTP ingest body read and decoded, accepted
// or not, and how many of its events took the encoding/json path.
func (o *Observer) ObserveDecode(start time.Time, fallback int) {
	o.decode.Observe(time.Since(start))
	o.decodeFallback.Add(int64(fallback))
}

// ObserveSubmit records one accepted Submit call of n events.
func (o *Observer) ObserveSubmit(start time.Time, events int) {
	o.submit.Observe(time.Since(start))
	o.batchesSubmitted.Add(1)
	o.eventsSubmitted.Add(int64(events))
}

// ObserveEnqueue records time spent blocked on a full queue.
func (o *Observer) ObserveEnqueue(start time.Time) {
	o.enqueue.Observe(time.Since(start))
}

// ObserveClose records one day-close barrier, caller-observed.
func (o *Observer) ObserveClose(start time.Time) {
	o.close.Observe(time.Since(start))
	o.dayCloses.Add(1)
}

// ObserveMerge records one closed day's group fill.
func (o *Observer) ObserveMerge(start time.Time) {
	o.merge.Observe(time.Since(start))
}

// ObserveMergePublish records one publish of closed days: extending the
// shared field, freezing headers, rebinding the detector, and the pointer
// store.
func (o *Observer) ObserveMergePublish(start time.Time) {
	o.mergePublish.Observe(time.Since(start))
}

// SetPendingMergeDays sets the merge_pending_days gauge: closed days not
// yet visible to ranks because their close has not published.
func (o *Observer) SetPendingMergeDays(n int64) {
	o.pendingMergeDays.Store(n)
}

// ObserveSnapshot records how long one completed snapshot round took and
// the day it cut at.
func (o *Observer) ObserveSnapshot(d time.Duration, day int64) {
	o.snapshot.Observe(d)
	o.snapshots.Add(1)
	o.lastSnapshotDay.Store(day)
}

// ObserveSnapshotEncode records how long one shard's snapshot file took
// to encode, hash and hand to the kernel (shard goroutines record side by
// side).
func (o *Observer) ObserveSnapshotEncode(d time.Duration) {
	o.snapEncode.Observe(d)
}

// ObserveSnapshotSync records how long one shard's snapshot file took to
// make durable: file fsync, rename, directory fsync.
func (o *Observer) ObserveSnapshotSync(d time.Duration) {
	o.snapSync.Observe(d)
}

// ObserveRank records one ranked-list query.
func (o *Observer) ObserveRank(start time.Time) {
	o.rank.Observe(time.Since(start))
}

// ObserveRankFill records one fill of the rank score memo: the time a
// rank spent scoring `columns` columns no earlier rank had scored.
func (o *Observer) ObserveRankFill(start time.Time, columns int) {
	o.rankFill.Observe(time.Since(start))
	o.columnsScored.Add(int64(columns))
}

// AddRankColumnsReused counts score columns a rank read from the memo.
func (o *Observer) AddRankColumnsReused(columns int) {
	o.columnsReused.Add(int64(columns))
}

// ObserveRetrain records one finished retrain attempt.
func (o *Observer) ObserveRetrain(start time.Time, err error) {
	o.retrain.Observe(time.Since(start))
	o.retrains.Add(1)
	if err != nil {
		o.retrainFailures.Add(1)
	}
}

// ObserveRetrainClone records a retrain's setup — loading the published
// headers and building the detector over them; nothing is copied.
func (o *Observer) ObserveRetrainClone(start time.Time) {
	o.retrainClone.Observe(time.Since(start))
}
