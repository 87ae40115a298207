package obs

import (
	"bytes"
	"fmt"
	"strings"
	"sync"
	"testing"
	"time"
)

func TestHistogramBasics(t *testing.T) {
	var h Histogram
	if s := h.Snapshot(); s.Count != 0 || s.Quantile(0.5) != 0 || s.Mean() != 0 {
		t.Fatalf("empty histogram snapshot = %+v", s)
	}
	h.Observe(0)
	h.Observe(-time.Second) // clamps to 0
	h.Observe(100 * time.Nanosecond)
	h.Observe(1 * time.Millisecond)
	s := h.Snapshot()
	if s.Count != 4 {
		t.Fatalf("count = %d, want 4", s.Count)
	}
	if want := uint64(100 + 1e6); s.SumNanos != want {
		t.Fatalf("sum = %d, want %d", s.SumNanos, want)
	}
	if s.MaxNanos != 1e6 {
		t.Fatalf("max = %d, want 1e6", s.MaxNanos)
	}
	// Two zeros land in bucket 0.
	if s.Buckets[0] != 2 {
		t.Fatalf("bucket 0 = %d, want 2", s.Buckets[0])
	}
}

func TestHistogramQuantileBrackets(t *testing.T) {
	var h Histogram
	for i := 0; i < 90; i++ {
		h.Observe(1 * time.Microsecond)
	}
	for i := 0; i < 10; i++ {
		h.Observe(1 * time.Millisecond)
	}
	s := h.Snapshot()
	p50 := s.Quantile(0.50)
	if p50 < 512*time.Nanosecond || p50 > 2*time.Microsecond {
		t.Fatalf("p50 = %v, want ~1µs", p50)
	}
	p99 := s.Quantile(0.99)
	if p99 < 512*time.Microsecond || p99 > 2*time.Millisecond {
		t.Fatalf("p99 = %v, want ~1ms", p99)
	}
	if q1 := s.Quantile(1); q1 != time.Duration(s.MaxNanos) {
		t.Fatalf("q(1) = %v, want max %v", q1, time.Duration(s.MaxNanos))
	}
}

func TestHistogramClampsOverflowBucket(t *testing.T) {
	var h Histogram
	h.Observe(24 * time.Hour)
	s := h.Snapshot()
	if s.Buckets[histBuckets-1] != 1 {
		t.Fatalf("huge value not in top bucket: %+v", s.Buckets)
	}
	// The overflow bucket's real upper edge is the observed max: the
	// estimate must land between the bucket's floor and the max.
	if q := s.Quantile(0.5); q < time.Duration(1)<<38 || q > time.Duration(s.MaxNanos) {
		t.Fatalf("overflow quantile %v outside [2^38ns, max]", q)
	}
	if q := s.Quantile(1); q != time.Duration(s.MaxNanos) {
		t.Fatalf("q(1) = %v, want max", q)
	}
}

func TestHistogramMergeCountsOnce(t *testing.T) {
	hs := make([]Histogram, 3)
	total := 0
	for i := range hs {
		for j := 0; j <= i*10; j++ {
			hs[i].Observe(time.Duration(j) * time.Microsecond)
			total++
		}
	}
	var merged HistogramSnapshot
	for i := range hs {
		merged.Merge(hs[i].Snapshot())
	}
	if merged.Count != uint64(total) {
		t.Fatalf("merged count = %d, want %d", merged.Count, total)
	}
	var bucketSum uint64
	for _, n := range merged.Buckets {
		bucketSum += n
	}
	if bucketSum != merged.Count {
		t.Fatalf("bucket sum %d != count %d", bucketSum, merged.Count)
	}
}

func TestObserverSnapshotAndCounters(t *testing.T) {
	o := NewObserver()
	for k := 0; k < 3; k++ {
		ss := o.ShardStats(k, 3)
		ss.ObserveApply(time.Now().Add(-time.Millisecond))
		ss.AddWALAppend(100 * (k + 1))
		ss.NoteQueueDepth(k + 1)
		ss.NoteQueueDepth(k) // lower: must not regress the HWM
	}
	o.ObserveSubmit(time.Now().Add(-time.Microsecond), 42)
	o.ObserveRetrain(time.Now().Add(-time.Second), fmt.Errorf("boom"))
	o.ObserveRankFill(time.Now().Add(-time.Millisecond), 3)
	o.ObserveRankFill(time.Now().Add(-time.Millisecond), 6)
	o.AddRankColumnsReused(18)
	snap := o.Snapshot()
	if got := snap.Counter(CounterEventsSubmitted); got != 42 {
		t.Fatalf("events_submitted = %d, want 42", got)
	}
	if scored, reused, fills := snap.Counter(CounterRankColumnsScored), snap.Counter(CounterRankColumnsReused), snap.Stage(StageRankFill).Count; scored != 9 || reused != 18 || fills != 2 {
		t.Fatalf("rank columns scored %d reused %d over %d fills, want 9, 18, 2", scored, reused, fills)
	}
	if got := snap.Counter(CounterRetrainFailures); got != 1 {
		t.Fatalf("retrain_failures = %d, want 1", got)
	}
	if got := snap.Stage(StageApply).Count; got != 3 {
		t.Fatalf("merged apply count = %d, want 3", got)
	}
	if len(snap.Shards) != 3 {
		t.Fatalf("shard rows = %d, want 3", len(snap.Shards))
	}
	for k, sh := range snap.Shards {
		if sh.WALBytes != int64(100*(k+1)) || sh.WALFrames != 1 {
			t.Fatalf("shard %d wal = %+v", k, sh)
		}
		if sh.QueueHWM != int64(k+1) {
			t.Fatalf("shard %d hwm = %d, want %d", k, sh.QueueHWM, k+1)
		}
	}
	// ShardStats is idempotent: same cells, counters preserved.
	if o.ShardStats(1, 3) != o.ShardStats(1, 3) {
		t.Fatal("shard cell not stable across calls")
	}
}

func TestWritePrometheus(t *testing.T) {
	o := NewObserver()
	o.ShardStats(0, 2).AddWALAppend(64)
	o.ObserveSubmit(time.Now().Add(-time.Millisecond), 7)
	var buf bytes.Buffer
	if err := WritePrometheus(&buf, o.Snapshot(), Gauges{Users: 5, Shards: 2, ClosedThrough: 9, Fitted: true}); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	wants := []string{
		"acobe_users 5",
		"acobe_shards 2",
		"acobe_closed_through_day 9",
		"acobe_fitted 1",
		"acobe_events_submitted_total 7",
		`acobe_stage_duration_seconds_bucket{stage="ingest_submit",le="+Inf"} 1`,
		`acobe_stage_duration_seconds_count{stage="ingest_submit"} 1`,
		`acobe_shard_wal_bytes_total{shard="0"} 64`,
		`acobe_shard_wal_bytes_total{shard="1"} 0`,
	}
	for _, want := range wants {
		if !strings.Contains(out, want) {
			t.Fatalf("exposition missing %q:\n%s", want, out)
		}
	}
	// Histogram buckets must be cumulative and end at the count.
	if !strings.Contains(out, "# TYPE acobe_stage_duration_seconds histogram") {
		t.Fatal("missing histogram TYPE line")
	}
}

func TestConcurrentObserve(t *testing.T) {
	var h Histogram
	const workers, per = 8, 10000
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < per; i++ {
				h.Observe(time.Duration(w*i) * time.Nanosecond)
			}
		}(w)
	}
	wg.Wait()
	if s := h.Snapshot(); s.Count != workers*per {
		t.Fatalf("count = %d, want %d", s.Count, workers*per)
	}
}

// TestObserveAllocFree pins the hot-path contract: recording allocates
// nothing.
func TestObserveAllocFree(t *testing.T) {
	o := NewObserver()
	ss := o.ShardStats(0, 1)
	start := time.Now()
	allocs := testing.AllocsPerRun(1000, func() {
		o.ObserveSubmit(start, 10)
		o.ObserveEnqueue(start)
		ss.ObserveApply(start)
		ss.AddWALAppend(512)
		ss.NoteQueueDepth(3)
	})
	if allocs != 0 {
		t.Fatalf("recording allocates %v per run, want 0", allocs)
	}
}

// BenchmarkObserve pins the per-hook cost of one histogram record — the
// number DESIGN.md §13 quotes for overhead methodology.
func BenchmarkObserve(b *testing.B) {
	var h Histogram
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		h.Observe(time.Duration(i))
	}
}

// BenchmarkObserveSubmit is the full submit-side hook: one clock read plus
// histogram and two counters.
func BenchmarkObserveSubmit(b *testing.B) {
	o := NewObserver()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		o.ObserveSubmit(time.Now(), 10)
	}
}
