package obs

import (
	"time"
)

// StageStats summarizes one stage's merged histogram for the JSON status
// surface: flat, CSV-friendly numbers (the full bucket layout rides along
// for the Prometheus exposition).
type StageStats struct {
	Stage  string  `json:"stage"`
	Count  uint64  `json:"count"`
	MeanUS float64 `json:"mean_us"`
	P50US  float64 `json:"p50_us"`
	P90US  float64 `json:"p90_us"`
	P99US  float64 `json:"p99_us"`
	MaxUS  float64 `json:"max_us"`

	hist HistogramSnapshot
}

// Counter is one named monotonic (or last-value) counter.
type Counter struct {
	Name  string `json:"name"`
	Value int64  `json:"value"`
}

// ShardSnapshot is one shard's scrape row. The observer fills the fields
// it records (queue high-water mark, WAL traffic); the server overlays
// the live gauges it owns (queue depth, ingested/late/unknown-user
// counts, user count) before handing the snapshot out.
type ShardSnapshot struct {
	Shard      int   `json:"shard"`
	Users      int   `json:"users"`
	QueueDepth int   `json:"queue_depth"`
	QueueHWM   int64 `json:"queue_hwm"`
	Ingested   int64 `json:"ingested"`
	Late       int64 `json:"late"`
	Unknown    int64 `json:"unknown_user_events"`
	WALBytes   int64 `json:"wal_bytes"`
	WALFrames  int64 `json:"wal_frames"`
	WALFsyncs  int64 `json:"wal_fsyncs"`
}

// Snapshot is one point-in-time scrape of an Observer: the JSON payload
// embedded in /v1/status and the source the Prometheus exposition renders
// from. Stage histograms are already merged across shards.
type Snapshot struct {
	UptimeSeconds float64         `json:"uptime_seconds"`
	Stages        []StageStats    `json:"stages"`
	Counters      []Counter       `json:"counters"`
	Shards        []ShardSnapshot `json:"shards"`
}

// summarize converts a merged histogram into its flat stage row.
func summarize(stage string, h HistogramSnapshot) StageStats {
	us := func(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e3 }
	return StageStats{
		Stage:  stage,
		Count:  h.Count,
		MeanUS: us(h.Mean()),
		P50US:  us(h.Quantile(0.50)),
		P90US:  us(h.Quantile(0.90)),
		P99US:  us(h.Quantile(0.99)),
		MaxUS:  float64(h.MaxNanos) / 1e3,
		hist:   h,
	}
}

// Hist exposes the stage's merged histogram snapshot (for expositions
// that need the full bucket layout, and for tests).
func (s StageStats) Hist() HistogramSnapshot { return s.hist }

// Snapshot scrapes the observer: global stage histograms, the per-shard
// Apply/Fsync histograms merged into their stage rows, counters, and one
// row per shard. Returns nil on a nil observer. The scrape is not one
// atomic cut — concurrent recording may land between field reads — which
// is the standard monitoring trade.
func (o *Observer) Snapshot() *Snapshot {
	if o == nil {
		return nil
	}
	o.mu.Lock()
	shards := append([]*ShardStats(nil), o.shards...)
	o.mu.Unlock()

	var apply, fsync, walHash, barrier, finalize, advance HistogramSnapshot
	rows := make([]ShardSnapshot, len(shards))
	for i, ss := range shards {
		apply.Merge(ss.Apply.Snapshot())
		fsync.Merge(ss.Fsync.Snapshot())
		walHash.Merge(ss.Hash.Snapshot())
		barrier.Merge(ss.Barrier.Snapshot())
		finalize.Merge(ss.Finalize.Snapshot())
		advance.Merge(ss.Advance.Snapshot())
		rows[i] = ShardSnapshot{
			Shard:     i,
			QueueHWM:  ss.queueHWM.Load(),
			WALBytes:  ss.walBytes.Load(),
			WALFrames: ss.walFrames.Load(),
			WALFsyncs: ss.walFsyncs.Load(),
		}
	}

	byStage := map[string]HistogramSnapshot{
		StageDecode:        o.decode.Snapshot(),
		StageSubmit:        o.submit.Snapshot(),
		StageEnqueue:       o.enqueue.Snapshot(),
		StageApply:         apply,
		StageClose:         o.close.Snapshot(),
		StageCloseBarrier:  barrier,
		StageCloseFinalize: finalize,
		StageCloseAdvance:  advance,
		StageMerge:         o.merge.Snapshot(),
		StageMergePublish:  o.mergePublish.Snapshot(),
		StageSnapshot:      o.snapshot.Snapshot(),
		StageSnapEncode:    o.snapEncode.Snapshot(),
		StageSnapSync:      o.snapSync.Snapshot(),
		StageRank:          o.rank.Snapshot(),
		StageRankFill:      o.rankFill.Snapshot(),
		StageRetrain:       o.retrain.Snapshot(),
		StageRetrainClone:  o.retrainClone.Snapshot(),
		StageWALFsync:      fsync,
		StageWALHash:       walHash,
	}
	stages := make([]StageStats, 0, len(stageOrder))
	for _, name := range stageOrder {
		stages = append(stages, summarize(name, byStage[name]))
	}

	return &Snapshot{
		UptimeSeconds: time.Since(o.start).Seconds(),
		Stages:        stages,
		Counters: []Counter{
			{CounterEventsSubmitted, o.eventsSubmitted.Load()},
			{CounterBatchesSubmitted, o.batchesSubmitted.Load()},
			{CounterDecodeFallback, o.decodeFallback.Load()},
			{CounterDayCloses, o.dayCloses.Load()},
			{CounterSnapshots, o.snapshots.Load()},
			{CounterLastSnapshotDay, o.lastSnapshotDay.Load()},
			{CounterRetrains, o.retrains.Load()},
			{CounterRetrainFailures, o.retrainFailures.Load()},
			{CounterRankColumnsScored, o.columnsScored.Load()},
			{CounterRankColumnsReused, o.columnsReused.Load()},
			{CounterMergePendingDays, o.pendingMergeDays.Load()},
		},
		Shards: rows,
	}
}

// Stage returns the named stage's row, or a zero row if absent.
func (s *Snapshot) Stage(name string) StageStats {
	if s == nil {
		return StageStats{}
	}
	for _, st := range s.Stages {
		if st.Stage == name {
			return st
		}
	}
	return StageStats{}
}

// Counter returns the named counter's value (0 if absent).
func (s *Snapshot) Counter(name string) int64 {
	if s == nil {
		return 0
	}
	for _, c := range s.Counters {
		if c.Name == name {
			return c.Value
		}
	}
	return 0
}
