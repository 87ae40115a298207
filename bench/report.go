package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
)

// metric is one reported number. N is the sample count behind it. Raw is
// the value as measured when Value is at reference host speed
// (calibrate.go).
type metric struct {
	Name  string  `json:"name"`
	Unit  string  `json:"unit"`
	Value float64 `json:"value"`
	N     int     `json:"n"`
	Note  string  `json:"note,omitempty"`
	Raw   float64 `json:"raw,omitempty"`
}

// metrics collects a run's numbers; setting a name twice is an error the
// run reports, because every metric is emitted exactly once.
type metrics struct {
	list []metric
	dup  []string
}

func (m *metrics) set(name, unit string, value float64, n int) {
	m.setNote(name, unit, value, n, "")
}

func (m *metrics) setNote(name, unit string, value float64, n int, note string) {
	m.add(metric{Name: name, Unit: unit, Value: value, N: n, Note: note})
}

// setScaled records a value at reference host speed with the value as
// measured beside it.
func (m *metrics) setScaled(name, unit string, value, raw float64, n int) {
	m.add(metric{Name: name, Unit: unit, Value: value, N: n, Raw: raw})
}

func (m *metrics) add(x metric) {
	if _, dup := m.get(x.Name); dup {
		m.dup = append(m.dup, x.Name)
		return
	}
	m.list = append(m.list, x)
}

func (m *metrics) get(name string) (metric, bool) {
	for _, x := range m.list {
		if x.Name == name {
			return x, true
		}
	}
	return metric{}, false
}

// Where a catalogue entry applies.
type scope func(spec) bool

func everywhere(spec) bool   { return true }
func onHTTP(s spec) bool     { return s.HTTP }
func onSharded(s spec) bool  { return s.Shards > 1 }
func onOpenLoop(s spec) bool { return s.OpenLoop }

// metricDef is one catalogue row. Listed rows are the ones BENCHMARK.json
// names: the acceptance driver requires every listed metric on every
// workload, so only metrics that every workload measures can be listed.
// The rest are printed and written to the result file on the workloads
// they apply to, but no driver referees them.
type metricDef struct {
	Name, Unit string
	Better     string // "lower" or "higher"
	Traced     bool   // per-layer: reported by the traced run
	Listed     bool
	Applies    scope
}

var catalogue = []metricDef{
	// End to end.
	{"setup_s", "s", "lower", false, true, everywhere},
	{"ingest_events_per_s", "1/s", "higher", false, true, everywhere},
	{"ingest_ack_p50_ms", "ms", "lower", false, true, everywhere},
	{"close_to_rank_p50_s", "s", "lower", false, true, everywhere},
	{"rank_p50_ms", "ms", "lower", false, true, everywhere},
	{"retrain_s", "s", "lower", false, true, everywhere},
	{"offline_pipeline_s", "s", "lower", false, true, everywhere},
	{"snapshot_close_s", "s", "lower", false, true, everywhere},
	{"recover_s", "s", "lower", false, true, everywhere},
	{"resident_bytes_per_user", "B", "lower", false, true, everywhere},
	{"peak_rss_mb", "MB", "lower", false, true, everywhere},
	{"host.calibration_ms", "ms", "lower", false, false, everywhere},

	// Per layer.
	{"failed_ops_share", "ratio", "lower", true, true, everywhere},
	{"ingest_ack_p99_ms", "ms", "lower", true, true, everywhere},
	{"rank_p90_ms", "ms", "lower", true, true, everywhere},
	{"cert.gen_events_per_s", "1/s", "higher", true, true, everywhere},
	{"cert.encode_bytes_per_event", "B", "lower", true, true, everywhere},
	{"serve.http.decode_ns_per_event", "ns", "lower", true, true, everywhere},
	{"serve.http.rank_overhead_ms", "ms", "lower", true, true, everywhere},
	{"serve.http.ingest_roundtrip_ms", "ms", "lower", true, false, onHTTP},
	{"serve.http.body_bytes_per_event", "B", "lower", true, false, onHTTP},
	{"serve.http.decode_share_pct", "%", "lower", true, false, onHTTP},
	{"serve.submit.ns_per_event", "ns", "lower", true, true, everywhere},
	{"serve.queue.enqueue_wait_s", "s", "lower", true, true, everywhere},
	{"serve.apply.busy_s", "s", "lower", true, true, everywhere},
	{"serve.shard.skew", "ratio", "lower", true, true, everywhere},
	{"serve.wal.bytes_per_event", "B", "lower", true, true, everywhere},
	{"serve.wal.segments", "count", "lower", true, true, everywhere},
	{"serve.wal.fsync_count", "count", "lower", true, true, everywhere},
	{"serve.wal.fsync_busy_s", "s", "lower", true, true, everywhere},
	{"serve.wal.hash_busy_s", "s", "lower", true, true, everywhere},
	{"audit.merkle_ns_per_event", "ns", "lower", true, true, everywhere},
	{"audit.chain_fold_ns_per_frame", "ns", "lower", true, true, everywhere},
	{"serve.snapshot.busy_s", "s", "lower", true, true, everywhere},
	{"serve.snapshot.bytes_per_user", "B", "lower", true, true, everywhere},
	{"serve.recover.replayed_events", "count", "lower", true, true, everywhere},
	{"serve.recover.events_per_s", "1/s", "higher", true, true, everywhere},
	{"serve.verify.audit_walk_s", "s", "lower", true, true, everywhere},
	{"serve.close.day_close_p50_s", "s", "lower", true, true, everywhere},
	{"serve.close.weekday_events", "count", "higher", true, true, everywhere},
	{"serve.close.merge_busy_s", "s", "lower", true, false, onSharded},
	{"serve.close.publish_busy_s", "s", "lower", true, false, onSharded},
	{"features.extract_ns_per_event", "ns", "lower", true, true, everywhere},
	{"deviation.advance_ns_per_user_day", "ns", "lower", true, true, everywhere},
	{"features.table_bytes_per_user_day", "B", "lower", true, true, everywhere},
	{"serve.rank.cold_ms", "ms", "lower", true, true, everywhere},
	{"serve.rank.warm_ms", "ms", "lower", true, true, everywhere},
	{"core.score_batch_ms", "ms", "lower", true, true, everywhere},
	{"core.score_user_days_per_s", "1/s", "higher", true, true, everywhere},
	{"core.critic_ms", "ms", "lower", true, true, everywhere},
	{"serve.rank.quiescent_ms", "ms", "lower", true, false, onOpenLoop},
	{"serve.rank.under_ingest_ratio", "ratio", "lower", true, false, onOpenLoop},
	{"gen.late_p99_ms", "ms", "lower", true, false, onOpenLoop},
	{"serve.retrain.clone_s", "s", "lower", true, true, everywhere},
	{"serve.rank.during_retrain_per_s", "1/s", "higher", true, true, everywhere},
	{"offline.extract_s", "s", "lower", true, true, everywhere},
	{"offline.deviation_s", "s", "lower", true, true, everywhere},
	{"offline.fit_s", "s", "lower", true, true, everywhere},
	{"offline.score_s", "s", "lower", true, true, everywhere},
	{"offline.critic_s", "s", "lower", true, true, everywhere},
	{"offline.span_gap_pct", "%", "lower", true, true, everywhere},
	{"close_to_rank.span_gap_pct", "%", "lower", true, true, everywhere},
	{"autoencoder.fit_samples_per_s", "1/s", "higher", true, true, everywhere},
	{"autoencoder.score_rows_per_s", "1/s", "higher", true, true, everywhere},
	{"go.gc_pause_total_ms", "ms", "lower", true, true, everywhere},
	{"go.gc_cycles", "count", "lower", true, true, everywhere},
	{"go.alloc_bytes_per_event", "B", "lower", true, true, everywhere},
	{"go.heap_after_gc_mb", "MB", "lower", true, true, everywhere},
	{"trace.overhead_pct", "%", "lower", true, true, everywhere},
}

// stamp says what produced a result file.
type stamp struct {
	Commit     string `json:"commit"`
	GoVersion  string `json:"go_version"`
	NProc      int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
}

func newStamp() stamp {
	commit := "unknown"
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			if s.Key == "vcs.revision" {
				commit = s.Value
			}
		}
	}
	return stamp{commit, runtime.Version(), runtime.NumCPU(), runtime.GOMAXPROCS(0)}
}

// result is one run, as written to bench/out/result-<workload>.json.
type result struct {
	Workload   string   `json:"workload"`
	Seed       uint64   `json:"seed"`
	Seconds    float64  `json:"seconds"`
	Traced     bool     `json:"traced"`
	Cycles     int      `json:"cycles"`
	Stamp      stamp    `json:"stamp"`
	Sizes      spec     `json:"sizes"` // the frozen sizes the run used
	Correct    bool     `json:"correct"`
	Attempted  int64    `json:"attempted"`
	Failed     int64    `json:"failed"`
	FirstError string   `json:"first_error,omitempty"`
	Metrics    []metric `json:"metrics"`
}

// driverLine is the last line of standard output, in the acceptance
// driver's format: the listed end-to-end metrics of an untraced run, or
// the listed per-layer metrics of a traced one.
func (r *result) driverLine() ([]byte, error) {
	type mv struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	line := struct {
		Correct   bool          `json:"correct"`
		Attempted int64         `json:"attempted"`
		Failed    int64         `json:"failed"`
		Metrics   map[string]mv `json:"metrics"`
	}{r.Correct, r.Attempted, r.Failed, make(map[string]mv)}
	by := make(map[string]metric, len(r.Metrics))
	for _, m := range r.Metrics {
		by[m.Name] = m
	}
	for _, d := range catalogue {
		if !d.Listed || d.Traced != r.Traced {
			continue
		}
		m, ok := by[d.Name]
		if !ok || math.IsNaN(m.Value) || math.IsInf(m.Value, 0) {
			return nil, fmt.Errorf("listed metric %s was not measured", d.Name)
		}
		line.Metrics[d.Name] = mv{m.Value, m.Unit}
	}
	return json.Marshal(line)
}

// print writes every metric by name with its unit and sample count.
func (r *result) print(w io.Writer) {
	fmt.Fprintf(w, "workload %s  seed %d  cycles %d  traced %v  commit %s  %s  nproc %d  GOMAXPROCS %d\n",
		r.Workload, r.Seed, r.Cycles, r.Traced, r.Stamp.Commit, r.Stamp.GoVersion, r.Stamp.NProc, r.Stamp.GOMAXPROCS)
	listed := make(map[string]bool)
	for _, d := range catalogue {
		listed[d.Name] = d.Listed
	}
	for _, m := range r.Metrics {
		tag := ""
		if !listed[m.Name] {
			tag = "  [this workload only; not in BENCHMARK.json]"
		}
		if m.Note != "" {
			tag += "  (" + m.Note + ")"
		}
		if m.Raw != 0 {
			tag += fmt.Sprintf("  (as measured %.6g)", m.Raw)
		}
		fmt.Fprintf(w, "  %-36s %16.6g %-6s n=%d%s\n", m.Name, m.Value, m.Unit, m.N, tag)
	}
	fmt.Fprintf(w, "operations attempted %d  failed %d  correct %v\n", r.Attempted, r.Failed, r.Correct)
	if r.FirstError != "" {
		fmt.Fprintf(w, "first failure: %s\n", r.FirstError)
	}
}

// save writes the result file, creating the directory.
func (r *result) save(dir string) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	b, err := json.MarshalIndent(r, "", "  ")
	if err != nil {
		return err
	}
	name := "result-" + r.Workload + ".json"
	if r.Traced {
		name = "result-" + r.Workload + "-traced.json"
	}
	return os.WriteFile(filepath.Join(dir, name), append(b, '\n'), 0o644)
}

// procStatusMB reads one memory line (VmRSS, VmHWM) of the process's
// status, in MB.
func procStatusMB(key string) (float64, error) {
	f, err := os.Open("/proc/self/status")
	if err != nil {
		return 0, err
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		var kb float64
		if n, _ := fmt.Sscanf(sc.Text(), key+": %f kB", &kb); n == 1 {
			return kb / 1024, nil
		}
	}
	return 0, fmt.Errorf("%s not in /proc/self/status: %v", key, sc.Err())
}
