// Command bench is the repository's benchmark: BENCHMARK.json at the repo
// root names its workloads and metrics, and this harness measures them.
// It starts the serving daemon in-process through pkg/acobe/daemon, mounts
// Server.Handler() on a loopback port, drives it with inputs built
// entirely outside the timed windows, checks the outputs against the
// offline batch pipeline, and prints every metric by name with its unit.
//
//	bash bench/run.sh --workload day_cycle --seed 1 --seconds 26 --trace 0
//	bash bench/run.sh --workload ingest_http --seed 1 --trace 1
//	bash bench/run.sh --repeat 10
//
// See bench/README.md for the catalogue and how to read a trace.
package main

import (
	"bytes"
	"context"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"time"

	"acobe/internal/obs"
)

func main() {
	os.Exit(mainExit(os.Args[1:], os.Stdout, os.Stderr))
}

func mainExit(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("bench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		workload = fs.String("workload", "", "workload to run: ingest_http, ingest_durable, day_cycle or rank_under_ingest")
		seed     = fs.Uint64("seed", 1, "seed for the dataset (cert.Config.Seed) and the model (WithSeed)")
		seconds  = fs.Float64("seconds", defaultSeconds, "measuring budget: daemon lives (cycles) repeat for this long, at least one")
		trace    = fs.Int("trace", 0, "1 records spans, attaches the observer, runs the replays and reports the per-layer metrics")
		outDir   = fs.String("out", filepath.Join("bench", "out"), "directory for trace and result files")
		repeat   = fs.Int("repeat", 0, "run every workload (or -workload) this many times on seeds seed, seed+1, … and report medians, quartiles and spreads")
	)
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *repeat > 0 {
		if err := repeatRuns(*repeat, *workload, *seed, *seconds, *outDir, stdout); err != nil {
			fmt.Fprintln(stderr, "bench:", err)
			return 1
		}
		return 0
	}
	sp, ok := specByName(*workload)
	if !ok {
		fmt.Fprintf(stderr, "bench: unknown workload %q\n", *workload)
		return 2
	}
	res, err := run(context.Background(), runOpts{sp: sp, seed: *seed, seconds: *seconds, trace: *trace != 0, outDir: *outDir})
	if err != nil {
		fmt.Fprintln(stderr, "bench:", err)
		return 1
	}
	res.print(stdout)
	line, err := res.driverLine()
	if err != nil {
		fmt.Fprintln(stderr, "bench:", err)
		return 1
	}
	fmt.Fprintf(stdout, "%s\n", line)
	if !res.Correct {
		return 1
	}
	return 0
}

// defaultSeconds mirrors run_seconds in BENCHMARK.json.
const defaultSeconds = 26

type runOpts struct {
	sp      spec
	seed    uint64
	seconds float64
	trace   bool
	outDir  string // trace and result files; "" writes none
	tmpDir  string // parent of data directories; "" is os.TempDir()

	corruptOracle bool // test hook: a wrong oracle must fail the run
}

// run executes one workload once and returns everything it measured. An
// error means the run could not be completed; failed output checks are
// reported through result.Correct instead.
func run(ctx context.Context, o runOpts) (*result, error) {
	sp := o.sp
	var tr *tracer
	if o.trace {
		tr = newTracer()
	}
	cal := newCalibrator(runtime.GOMAXPROCS(0))
	cal.sample()
	in, err := buildInputs(sp, o.seed, tr)
	if err != nil {
		return nil, fmt.Errorf("inputs: %w", err)
	}
	// The inputs stay resident for the whole run. What the daemon adds is
	// measured against the resident set now, with generation's garbage
	// returned to the operating system.
	debug.FreeOSMemory()
	baseRSSMB, err := procStatusMB("VmRSS")
	if err != nil {
		return nil, err
	}

	// Cycles repeat for -seconds: a new one starts only if the longest so
	// far would still end inside the budget, so a run's wall time is
	// bounded whatever the host's speed. Untraced cycles feed the
	// end-to-end metrics. A traced run alternates untraced and traced
	// cycles, so the same process also yields the tracing overhead.
	least := 1
	if o.trace {
		least = 2
	}
	plain, traced := new(samples), new(samples)
	var or *oracleResult // the last oracle run; a traced run keeps its last traced one
	cycles, longest := 0, 0.0
	for i, t0 := 0, time.Now(); i < least || time.Since(t0).Seconds()+longest <= o.seconds; i++ {
		t := time.Now()
		cycles++
		out, ctr := plain, (*tracer)(nil)
		if o.trace && i%2 == 1 {
			out, ctr = traced, tr
		}
		cal.sample()
		final, err := runCycle(ctx, sp, in, o.seed, i, out, ctr, cal, o.tmpDir)
		if err != nil {
			return nil, fmt.Errorf("cycle %d: %w", i, err)
		}
		// The offline oracle runs once per cycle: its list is the output
		// check, and its wall time one offline_pipeline_s sample.
		res, err := runOracle(ctx, sp, in, o.seed, ctr)
		if err != nil {
			return nil, fmt.Errorf("oracle: %w", err)
		}
		out.offlineS = append(out.offlineS, res.totalS)
		if o.corruptOracle {
			res.list[len(res.list)/2] ^= 1
		}
		if !bytes.Equal(final, res.list) {
			err = fmt.Errorf("cycle %d: served list (%d bytes) differs from the offline oracle's (%d bytes)", i, len(final), len(res.list))
		}
		out.op("oracle check", err)
		if or == nil || !o.trace || ctr != nil {
			or = res
		}
		longest = max(longest, time.Since(t).Seconds())
	}
	cal.sample()

	m := new(metrics)
	endToEnd(m, sp, in, plain, cal, baseRSSMB)
	if o.trace {
		if err := replays(ctx, sp, in, or, tr, m); err != nil {
			return nil, err
		}
		perLayer(m, sp, in, plain, traced, or, tr, cal)
	}
	if len(m.dup) > 0 {
		return nil, fmt.Errorf("metrics emitted twice: %v", m.dup)
	}

	res := &result{
		Workload: sp.Name, Seed: o.seed, Seconds: o.seconds, Traced: o.trace, Cycles: cycles,
		Stamp: newStamp(), Sizes: sp,
		Attempted: plain.attempted.Load() + traced.attempted.Load(),
		Failed:    plain.failed.Load() + traced.failed.Load(),
		Metrics:   m.list,
	}
	res.Correct = res.Failed == 0
	for _, s := range []*samples{plain, traced} {
		if msg := s.firstErr.Load(); msg != nil && res.FirstError == "" {
			res.FirstError = *msg
		}
	}
	if o.trace {
		// failed_ops_share is 0 at the seed commit, and the driver's
		// end-to-end metrics may never be 0, so it is reported with the
		// per-layer metrics; attempted and failed carry it on every run.
		res.Metrics = append(res.Metrics, metric{Name: "failed_ops_share", Unit: "ratio", Value: float64(res.Failed) / float64(res.Attempted), N: int(res.Attempted)})
	}
	if o.outDir != "" {
		if o.trace {
			if err := tr.write(filepath.Join(o.outDir, "trace-"+sp.Name+".jsonl")); err != nil {
				return nil, err
			}
		}
		if err := res.save(o.outDir); err != nil {
			return nil, err
		}
	}
	return res, nil
}

// endToEnd emits the metrics a user of the daemon would see, from the
// untraced cycles. Timings and rates are reported at reference host speed
// (calibrate.go) with the value as measured beside them; memory and a rate
// that a clock sets are as measured only.
func endToEnd(m *metrics, sp spec, in *inputs, p *samples, cal *calibrator, baseRSSMB float64) {
	f := cal.speed()
	timing := func(name, unit string, raw float64, n int) { m.setScaled(name, unit, raw*f, raw, n) }
	timing("setup_s", "s", in.genS+in.encodeS+median(p.setupS), len(p.setupS))
	if rate := median(p.cycleRate); sp.OpenLoop {
		m.set("ingest_events_per_s", "1/s", rate, len(p.cycleRate))
	} else {
		m.setScaled("ingest_events_per_s", "1/s", rate/f, rate, len(p.cycleRate))
	}
	// Per window and per day first, then over them: one disturbed window
	// then moves one sample of the median, not a share of the pooled acks.
	// An in-process ack without a WAL is a channel enqueue of some 20 µs,
	// which a disturbed host hardly slows, so it is not scaled.
	if sp.HTTP || sp.Durable {
		timing("ingest_ack_p50_ms", "ms", median(p.ackDayMS), len(p.ackMS))
	} else {
		m.set("ingest_ack_p50_ms", "ms", median(p.ackDayMS), len(p.ackMS))
	}
	timing("close_to_rank_p50_s", "s", median(p.closeToRankS), len(p.closeToRankS))
	timing("rank_p50_ms", "ms", median(p.warmDayMS), len(p.warmMS))
	timing("retrain_s", "s", median(p.retrainS), len(p.retrainS))
	timing("offline_pipeline_s", "s", median(p.offlineS), len(p.offlineS))
	timing("snapshot_close_s", "s", median(p.snapCloseS), len(p.snapCloseS))
	timing("recover_s", "s", median(p.recoverS), len(p.recoverS))
	m.set("resident_bytes_per_user", "B", median(p.residentB)/float64(len(in.ids)), len(p.residentB))
	m.set("peak_rss_mb", "MB", p.peakRSSMB-baseRSSMB, 1)
	m.set("host.calibration_ms", "ms", calibrationRefMS/f, len(cal.ms))
}

// perLayer emits the single-layer metrics of a traced run: timed calls
// from the spans, exact counts and sums scraped from the observer, and
// runtime counters. The replays have already added theirs.
func perLayer(m *metrics, sp spec, in *inputs, plain, t *samples, or *oracleResult, tr *tracer, cal *calibrator) {
	l := &t.layer
	events := float64(l.windowEv)
	busy := func(stage string) float64 { return l.stage[stage].seconds }
	ms := func(name string) []float64 {
		xs := tr.seconds(name)
		for i := range xs {
			xs[i] *= 1e3
		}
		return xs
	}

	// The two tails could not be made to repeat within a tenth on the
	// 2-core host, so they are per-layer metrics (no bound), at reference
	// host speed like the end-to-end ones. They pool the traced and the
	// untraced cycles, so that a traced run has the samples a p90 and a
	// p99 need. The ack tail is each cycle's own p99, then the median over
	// cycles: a burst that lands in one cycle does not set the number.
	f := cal.speed()
	note := ""
	if plain.ackTailUsed != 0.99 {
		note = fmt.Sprintf("p%g per cycle: too few batches in a cycle for ten beyond p99", plain.ackTailUsed*100)
	}
	m.setNote("ingest_ack_p99_ms", "ms", f*median(append(plain.ackTailMS, t.ackTailMS...)), len(plain.ackMS)+len(t.ackMS), note)
	warm := append(plain.warmMS, t.warmMS...)
	v, used := tail(warm, 0.90)
	note = ""
	if used != 0.90 {
		note = fmt.Sprintf("p%g reported: %d samples leave fewer than ten beyond p90", used*100, len(warm))
	}
	m.setNote("rank_p90_ms", "ms", f*v, len(warm), note)

	m.set("cert.gen_events_per_s", "1/s", float64(in.events)/in.genS, in.events)
	m.set("serve.http.rank_overhead_ms", "ms", median(l.httpRankMS)-median(l.inprocRankMS), len(l.httpRankMS))
	m.set("serve.submit.ns_per_event", "ns", busy(obs.StageSubmit)*1e9/events, l.windowEv)
	m.set("serve.queue.enqueue_wait_s", "s", busy(obs.StageEnqueue), int(l.stage[obs.StageEnqueue].count))
	m.set("serve.apply.busy_s", "s", busy(obs.StageApply), int(l.stage[obs.StageApply].count))
	m.set("serve.shard.skew", "ratio", l.shardSkew, sp.Shards)

	closes := tr.seconds("serve.close")
	m.set("serve.close.day_close_p50_s", "s", median(closes), len(closes))
	m.set("serve.close.weekday_events", "count", median(t.weekdayEv), len(t.weekdayEv))
	cold, warmSpans := ms("serve.rank.cold"), ms("serve.rank.warm")
	m.set("serve.rank.cold_ms", "ms", median(cold), len(cold))
	m.set("serve.rank.warm_ms", "ms", median(warmSpans), len(warmSpans))
	clone := l.stage[obs.StageRetrainClone]
	m.set("serve.retrain.clone_s", "s", clone.seconds/float64(clone.count), int(clone.count))
	m.set("serve.rank.during_retrain_per_s", "1/s", median(t.retrainRankS), len(t.retrainRankS))

	m.set("offline.extract_s", "s", or.extractS, 1)
	m.set("offline.deviation_s", "s", or.deviationS, 1)
	m.set("offline.fit_s", "s", or.fitS, 1)
	m.set("offline.score_s", "s", or.scoreS, 1)
	m.set("offline.critic_s", "s", or.criticS, 1)
	// The budgets must add up: the offline spans to offline_pipeline_s,
	// and the close and cold-rank spans to close→rank.
	spans := or.extractS + or.deviationS + or.fitS + or.scoreS + or.criticS
	m.set("offline.span_gap_pct", "%", 100*(or.totalS-spans)/or.totalS, 5)
	m.set("close_to_rank.span_gap_pct", "%", 100*(l.closeToRankS-l.closeRankSpanS)/l.closeToRankS, len(t.closeToRankS))

	m.set("go.gc_pause_total_ms", "ms", l.gcPauseMS, int(l.gcCycles))
	m.set("go.gc_cycles", "count", l.gcCycles, int(l.gcCycles))
	m.set("go.alloc_bytes_per_event", "B", l.allocBytes/events, l.windowEv)
	m.set("go.heap_after_gc_mb", "MB", l.heapMB, 1)
	// Same inputs, alternating cycles: the weekday windows' median rate
	// with the tracer and the observer on, against without.
	m.set("trace.overhead_pct", "%", 100*(median(plain.weekdayRate)/median(t.weekdayRate)-1), len(t.weekdayRate))

	if sp.HTTP {
		rt := ms("ingest.batch")
		m.set("serve.http.ingest_roundtrip_ms", "ms", median(rt), len(rt))
		m.set("serve.http.body_bytes_per_event", "B", float64(in.bodyBytes)/float64(in.bodyEvs), in.bodyEvs)
		if dec, ok := m.get("serve.http.decode_ns_per_event"); ok {
			// Decode runs on the handler's goroutine, one per client, so
			// its share of the window is per client.
			share := dec.Value * events / 1e9 / float64(max(sp.Clients, 1)) / l.windowS
			m.set("serve.http.decode_share_pct", "%", 100*share, l.windowEv)
		}
	}
	if sp.Shards > 1 {
		m.set("serve.close.merge_busy_s", "s", busy(obs.StageMerge), int(l.stage[obs.StageMerge].count))
		m.set("serve.close.publish_busy_s", "s", busy(obs.StageMergePublish), int(l.stage[obs.StageMergePublish].count))
	}
	// The daemon life on disk: the workload's own when it is durable, the
	// durable phase's otherwise. Counts are per traced cycle.
	lives := float64(len(t.setupS))
	m.set("serve.wal.bytes_per_event", "B", l.walBytes/l.durableEv, int(l.durableEv))
	m.set("serve.wal.segments", "count", l.walSegments/lives, len(t.setupS))
	m.set("serve.wal.fsync_count", "count", l.walFsyncs/lives, len(t.setupS))
	m.set("serve.wal.fsync_busy_s", "s", busy(obs.StageWALFsync), int(l.stage[obs.StageWALFsync].count))
	m.set("serve.wal.hash_busy_s", "s", busy(obs.StageWALHash), int(l.stage[obs.StageWALHash].count))
	m.set("serve.snapshot.busy_s", "s", busy(obs.StageSnapshot), int(l.stage[obs.StageSnapshot].count))
	m.set("serve.snapshot.bytes_per_user", "B", l.snapBytes/float64(len(in.ids))/lives, len(in.ids))
	m.set("serve.recover.replayed_events", "count", l.replayedEvents/float64(len(t.recoverS)), len(t.recoverS))
	m.set("serve.recover.events_per_s", "1/s", l.replayedEvents/sum(t.recoverS), len(t.recoverS))
	m.set("serve.verify.audit_walk_s", "s", median(t.verifyS), len(t.verifyS))
	if sp.OpenLoop {
		m.set("serve.rank.quiescent_ms", "ms", median(t.quiescentMS), len(t.quiescentMS))
		m.set("serve.rank.under_ingest_ratio", "ratio", median(t.warmMS)/median(t.quiescentMS), len(t.warmMS))
		late, used := tail(t.lateMS, 0.99)
		m.setNote("gen.late_p99_ms", "ms", late, len(t.lateMS), fmt.Sprintf("p%g", used*100))
	}
}
