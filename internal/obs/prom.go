package obs

import (
	"fmt"
	"io"
	"math"
)

// Gauges carries the live values the server owns and the observer cannot
// see; the /metrics handler fills it at scrape time.
type Gauges struct {
	Users          int
	Shards         int
	ClosedThrough  int64
	Fitted         bool
	Retraining     bool
	PersistEnabled bool
}

// WritePrometheus renders one scrape in the Prometheus text exposition
// format (version 0.0.4): each stage as a native histogram in seconds,
// the counters, and per-shard gauge/counter families labeled by shard.
func WritePrometheus(w io.Writer, snap *Snapshot, g Gauges) error {
	b := &errWriter{w: w}

	b.printf("# HELP acobe_uptime_seconds Seconds since the observer was created.\n")
	b.printf("# TYPE acobe_uptime_seconds gauge\n")
	b.printf("acobe_uptime_seconds %g\n", snap.UptimeSeconds)
	b.printf("# HELP acobe_users Configured scored users.\n# TYPE acobe_users gauge\nacobe_users %d\n", g.Users)
	b.printf("# HELP acobe_shards Configured state shards.\n# TYPE acobe_shards gauge\nacobe_shards %d\n", g.Shards)
	b.printf("# HELP acobe_closed_through_day Last closed (extracted and merged) day index.\n# TYPE acobe_closed_through_day gauge\nacobe_closed_through_day %d\n", g.ClosedThrough)
	b.printf("# HELP acobe_fitted Whether a trained model is serving (1) or not (0).\n# TYPE acobe_fitted gauge\nacobe_fitted %d\n", boolGauge(g.Fitted))
	b.printf("# HELP acobe_retraining Whether a retrain is running.\n# TYPE acobe_retraining gauge\nacobe_retraining %d\n", boolGauge(g.Retraining))
	b.printf("# HELP acobe_persistence_enabled Whether the WAL/snapshot layer is on.\n# TYPE acobe_persistence_enabled gauge\nacobe_persistence_enabled %d\n", boolGauge(g.PersistEnabled))

	for _, c := range snap.Counters {
		// Most counter rows are monotonic; the last-value ones are gauges.
		typ := "counter"
		if c.Name == CounterLastSnapshotDay || c.Name == CounterMergePendingDays {
			typ = "gauge"
		}
		b.printf("# TYPE acobe_%s %s\n", c.Name, typ)
		b.printf("acobe_%s %d\n", c.Name, c.Value)
	}

	b.printf("# HELP acobe_stage_duration_seconds Per-stage latency of the serve pipeline.\n")
	b.printf("# TYPE acobe_stage_duration_seconds histogram\n")
	for _, st := range snap.Stages {
		h := st.Hist()
		cum := uint64(0)
		for i, n := range h.Buckets {
			cum += n
			// Bucket i's inclusive upper bound: just under 2^i ns; 2^i/1e9
			// seconds is the conventional le edge.
			le := math.Ldexp(1, i) / 1e9
			if i == 0 {
				le = 1e-9
			}
			b.printf("acobe_stage_duration_seconds_bucket{stage=%q,le=%q} %d\n", st.Stage, formatLE(le), cum)
		}
		b.printf("acobe_stage_duration_seconds_bucket{stage=%q,le=\"+Inf\"} %d\n", st.Stage, h.Count)
		b.printf("acobe_stage_duration_seconds_sum{stage=%q} %g\n", st.Stage, float64(h.SumNanos)/1e9)
		b.printf("acobe_stage_duration_seconds_count{stage=%q} %d\n", st.Stage, h.Count)
	}

	shardRow := func(name, help string, val func(ShardSnapshot) int64, typ string) {
		b.printf("# HELP acobe_shard_%s %s\n# TYPE acobe_shard_%s %s\n", name, help, name, typ)
		for _, sh := range snap.Shards {
			b.printf("acobe_shard_%s{shard=\"%d\"} %d\n", name, sh.Shard, val(sh))
		}
	}
	shardRow("users", "Users owned by the shard.", func(s ShardSnapshot) int64 { return int64(s.Users) }, "gauge")
	shardRow("queue_depth", "Batches waiting in the shard's ingest queue.", func(s ShardSnapshot) int64 { return int64(s.QueueDepth) }, "gauge")
	shardRow("queue_high_water", "Highest ingest queue depth seen since start.", func(s ShardSnapshot) int64 { return s.QueueHWM }, "gauge")
	shardRow("ingested_events_total", "Fresh events applied by the shard.", func(s ShardSnapshot) int64 { return s.Ingested }, "counter")
	shardRow("late_events_total", "Events dropped for arriving after their day closed.", func(s ShardSnapshot) int64 { return s.Late }, "counter")
	shardRow("unknown_user_events_total", "Events skipped for naming a user outside the roster.", func(s ShardSnapshot) int64 { return s.Unknown }, "counter")
	shardRow("wal_bytes_total", "Bytes appended to the shard's WAL (frame overhead included).", func(s ShardSnapshot) int64 { return s.WALBytes }, "counter")
	shardRow("wal_frames_total", "Frames appended to the shard's WAL.", func(s ShardSnapshot) int64 { return s.WALFrames }, "counter")
	shardRow("wal_fsyncs_total", "WAL fsyncs issued by the shard.", func(s ShardSnapshot) int64 { return s.WALFsyncs }, "counter")
	return b.err
}

// formatLE renders a bucket edge compactly and stably (%g).
func formatLE(v float64) string { return fmt.Sprintf("%g", v) }

func boolGauge(v bool) int {
	if v {
		return 1
	}
	return 0
}

// errWriter latches the first write error so the exposition loop stays
// uncluttered.
type errWriter struct {
	w   io.Writer
	err error
}

func (b *errWriter) printf(format string, args ...any) {
	if b.err != nil {
		return
	}
	_, b.err = fmt.Fprintf(b.w, format, args...)
}
