package main

import (
	"os"
	"path/filepath"
	"runtime"
	"slices"
	"strings"
	"sync/atomic"

	"acobe/internal/obs"
	"acobe/pkg/acobe/daemon"
)

// samples pools what the cycles of one run measured. End-to-end metrics
// read the fields filled by untraced cycles; the layer field is filled by
// traced cycles only (observer attached, runtime counters read).
type samples struct {
	setupS      []float64 // per cycle: daemon start + preload + set-up fit
	weekdayEv   []float64 // events per timed weekday window
	weekdayRate []float64 // events ÷ window (first byte sent → close acked), per timed weekday
	cycleRate   []float64 // per cycle: Σ events ÷ Σ timed windows
	offlineS    []float64 // per cycle: the offline oracle after extraction

	ackMS        []float64 // per batch
	ackDayMS     []float64 // per timed window: the window's median ack
	ackTailMS    []float64 // per cycle: the cycle's p99 ack (lowered when it has too few batches)
	ackTailUsed  float64   // the percentile those are
	lateMS       []float64 // open loop: how late each send left
	snapCloseS   []float64 // closes that cut a snapshot
	closeToRankS []float64 // CloseDay issued → list covering the day returned
	coldMS       []float64
	warmMS       []float64
	warmDayMS    []float64 // per timed day: the median of the day's warm ranks
	quiescentMS  []float64 // open loop: ranks before the sender starts
	retrainS     []float64
	retrainRankS []float64 // ranks per second while the measured retrain ran
	recoverS     []float64
	verifyS      []float64
	residentB    []float64 // heap after GC at end of timed section, minus the pre-start baseline
	peakRSSMB    float64   // the largest VmRSS sampled between timed windows

	attempted atomic.Int64
	failed    atomic.Int64
	firstErr  atomic.Pointer[string]

	// Traced cycles.
	layer layerData
}

// layerData holds the exact counts and sums scraped in traced cycles.
type layerData struct {
	stage      map[string]stageSum // observer stage deltas over the cycle
	shardSkew  float64
	gcPauseMS  float64
	gcCycles   float64
	allocBytes float64
	heapMB     float64
	windowEv   int     // events inside the traced windows
	windowS    float64 // Σ traced windows

	closeToRankS, closeRankSpanS float64 // Σ close→rank, and Σ of the close and cold-rank spans inside it

	walBytes, walSegments, walFsyncs, snapBytes float64
	durableEv, replayedEvents                   float64 // events written to disk, and replayed by recoveries
	httpRankMS, inprocRankMS                    []float64
}

type stageSum struct {
	count   uint64
	seconds float64
}

// op counts one attempted operation and, when err is set, one failure.
func (s *samples) op(what string, err error) bool {
	s.attempted.Add(1)
	if err == nil {
		return true
	}
	s.failed.Add(1)
	msg := what + ": " + err.Error()
	s.firstErr.CompareAndSwap(nil, &msg)
	return false
}

// sampleRSS reads the resident set and keeps the largest value seen. It is
// called between timed windows, never inside one.
func (s *samples) sampleRSS() {
	mb, err := procStatusMB("VmRSS")
	if s.op("read VmRSS", err) {
		s.peakRSSMB = max(s.peakRSSMB, mb)
	}
}

// memDelta accumulates runtime counters over the timed windows.
type memDelta struct {
	at                         runtime.MemStats
	pauseNS, cycles, allocated float64
}

func (m *memDelta) open() { runtime.ReadMemStats(&m.at) }

func (m *memDelta) close() {
	var now runtime.MemStats
	runtime.ReadMemStats(&now)
	m.pauseNS += float64(now.PauseTotalNs - m.at.PauseTotalNs)
	m.cycles += float64(now.NumGC - m.at.NumGC)
	m.allocated += float64(now.TotalAlloc - m.at.TotalAlloc)
}

// add folds one traced cycle's scrapes into the layer data: observer
// stage deltas between the first timed window and the end (exact counts
// and sums only), shard skew, and the runtime counters.
func (l *layerData) add(before, after *daemon.Metrics, mem memDelta, end runtime.MemStats) {
	if l.stage == nil {
		l.stage = make(map[string]stageSum)
	}
	prev := make(map[string]obs.HistogramSnapshot)
	for _, st := range before.Stages {
		prev[st.Stage] = st.Hist()
	}
	for _, st := range after.Stages {
		h, p := st.Hist(), prev[st.Stage]
		cur := l.stage[st.Stage]
		cur.count += h.Count - p.Count
		cur.seconds += float64(h.SumNanos-p.SumNanos) / 1e9
		l.stage[st.Stage] = cur
	}
	most, total := int64(0), int64(0)
	for _, sh := range after.Shards {
		most, total = max(most, sh.Ingested), total+sh.Ingested
	}
	l.addWAL(after)
	if total > 0 {
		l.shardSkew = float64(most) * float64(len(after.Shards)) / float64(total)
	}
	l.gcPauseMS += mem.pauseNS / 1e6
	l.gcCycles += mem.cycles
	l.allocBytes += mem.allocated
	l.heapMB = float64(end.HeapAlloc) / (1 << 20)
}

// durableStages are the observer stages only a daemon on disk runs.
var durableStages = []string{obs.StageWALFsync, obs.StageWALHash, obs.StageSnapshot}

// addDurable folds in what the durable phase's own daemon did: the
// stages only a daemon on disk runs, and its WAL counters.
func (l *layerData) addDurable(after *daemon.Metrics) {
	if l.stage == nil {
		l.stage = make(map[string]stageSum)
	}
	for _, st := range after.Stages {
		if slices.Contains(durableStages, st.Stage) {
			h, cur := st.Hist(), l.stage[st.Stage]
			cur.count += h.Count
			cur.seconds += float64(h.SumNanos) / 1e9
			l.stage[st.Stage] = cur
		}
	}
	l.addWAL(after)
}

func (l *layerData) addWAL(m *daemon.Metrics) {
	for _, sh := range m.Shards {
		l.walFsyncs += float64(sh.WALFsyncs)
		l.walBytes += float64(sh.WALBytes)
	}
}

// measureDir counts the WAL segments and snapshot bytes a durable cycle
// left on disk (older segments and snapshots are pruned as it runs).
func (l *layerData) measureDir(dir string) {
	_ = filepath.Walk(dir, func(path string, info os.FileInfo, err error) error {
		if err != nil || info.IsDir() {
			return nil // sizes are best effort; the checks that matter run in recoveries
		}
		switch {
		case strings.HasSuffix(path, ".log"):
			l.walSegments++
		case strings.HasSuffix(path, ".snap"):
			l.snapBytes += float64(info.Size())
		}
		return nil
	})
}
