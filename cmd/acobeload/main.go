// Command acobeload is the load harness for the acobed serving daemon: it
// scales the cert synthesizer to 100k–1M users, replays their event stream
// over real HTTP against a live daemon, and reports ingest latency and
// throughput curves plus rank throughput while a retrain is in flight.
//
// Two driving disciplines:
//
//	closed loop (-mode closed): C workers each own a stripe of the user
//	    population and post the next batch as soon as the previous response
//	    lands. Measures the daemon's saturation throughput at a given
//	    concurrency; latency is per-request round-trip time.
//	open loop (-mode open): batches are released on a fixed schedule
//	    (-rate batches/s) regardless of completion, and latency is measured
//	    from the *scheduled* release time, so queueing delay from a daemon
//	    that cannot keep up counts against it (no coordinated omission).
//
// Each entry in -concurrency replays the next -days consecutive dataset
// days, so one process sweeps a concurrency curve over a continuously
// growing daemon. After the sweep, the harness fits the ensemble once
// (timed), then launches a second retrain and hammers /v1/rank while it
// runs, reporting ranks/s-during-retrain — the paper's "serve while
// retraining" property under load. Finally the rank-during-close probe
// ingests -probe-days more days and forces each close while an open-loop
// rank stream runs at -rank-rate, reporting rank stall percentiles
// (latency from scheduled time, so a close that blocks ranking counts in
// full) and per-close wall time.
//
// Progress lines go to stdout as each phase ends; the last thing printed
// is the whole run as one indented JSON document (the probe under
// "rank_during_close"). Nothing is written to disk.
//
// Examples:
//
//	acobeload -self -users 100000 -concurrency 2,4 -days 2
//	acobeload -target http://127.0.0.1:8467 -users 1000 -concurrency 1,2,4
package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"acobe/internal/cert"
	"acobe/internal/deviation"
	"acobe/internal/obs"
	"acobe/pkg/acobe"
	"acobe/pkg/acobe/daemon"
)

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "acobeload:", err)
		os.Exit(1)
	}
}

type options struct {
	target      string
	self        bool
	shards      int
	users       int
	start       int
	days        int
	concurrency []int
	batch       int
	mode        string
	rate        float64
	window      int
	matrixDays  int
	epochs      int
	seed        uint64
	rankWorkers int
	top         int
	skipRetrain bool
	probeDays   int
	rankRate    float64
	skipProbe   bool
}

func run(args []string, stdout io.Writer) error {
	fs := flag.NewFlagSet("acobeload", flag.ContinueOnError)
	var (
		target    = fs.String("target", "", "base URL of a running acobed (e.g. http://127.0.0.1:8467); empty requires -self")
		self      = fs.Bool("self", false, "start an in-process daemon on a loopback port instead of targeting a running one")
		shards    = fs.Int("shards", 4, "shard count for -self")
		users     = fs.Int("users", 1000, "synthetic population size (rounded up to a department multiple)")
		start     = fs.Int("start", 2, "first replayed day index (default: first Monday of the r6 span)")
		days      = fs.Int("days", 2, "days ingested per concurrency level")
		concFlag  = fs.String("concurrency", "1,2,4", "comma-separated closed-loop worker counts; each level replays the next -days days")
		batch     = fs.Int("batch", 2000, "events per ingest request")
		mode      = fs.String("mode", "closed", "driving discipline: closed or open")
		rate      = fs.Float64("rate", 50, "open-loop batch release rate per second")
		window    = fs.Int("window", 3, "ω for -self; with -target it must match the daemon's geometry (used to place the retrain span)")
		mdays     = fs.Int("matrix-days", 2, "𝒟 for -self; with -target it must match the daemon's geometry")
		epochs    = fs.Int("epochs", 2, "training epochs for -self (kept tiny: the harness measures serving, not model quality)")
		seed      = fs.Uint64("seed", 7, "dataset + model seed")
		rworkers  = fs.Int("rank-workers", 2, "concurrent /v1/rank clients during the measured retrain")
		top       = fs.Int("top", 10, "rank list length requested during the retrain phase")
		skipRet   = fs.Bool("skip-retrain", false, "skip the retrain + rank-throughput phase")
		probeDays = fs.Int("probe-days", 2, "days driven by the rank-during-close probe (0 disables it)")
		rankRate  = fs.Float64("rank-rate", 20, "open-loop rank release rate per second during the probe")
		skipProbe = fs.Bool("skip-probe", false, "skip the rank-during-close probe")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	opt := options{
		target: strings.TrimRight(*target, "/"), self: *self, shards: *shards,
		users: *users, start: *start, days: *days, batch: *batch,
		mode: *mode, rate: *rate, window: *window, matrixDays: *mdays,
		epochs: *epochs, seed: *seed, rankWorkers: *rworkers, top: *top,
		skipRetrain: *skipRet, probeDays: *probeDays, rankRate: *rankRate,
		skipProbe: *skipProbe,
	}
	var err error
	if opt.concurrency, err = parseInts(*concFlag); err != nil {
		return fmt.Errorf("-concurrency: %w", err)
	}
	if len(opt.concurrency) == 0 {
		return errors.New("-concurrency must name at least one level")
	}
	if opt.mode != "closed" && opt.mode != "open" {
		return fmt.Errorf("-mode: unknown discipline %q", opt.mode)
	}
	if opt.days < 1 || opt.batch < 1 || opt.users < 1 {
		return errors.New("-users, -days, and -batch must be positive")
	}
	if opt.target == "" && !opt.self {
		return errors.New("either -target or -self is required")
	}
	return drive(opt, stdout)
}

func drive(opt options, stdout io.Writer) error {
	ctx := context.Background()

	perDept := (opt.users + len(cert.DefaultDepartments) - 1) / len(cert.DefaultDepartments)
	gcfg := cert.Config{
		Seed:         opt.seed,
		Departments:  append([]string(nil), cert.DefaultDepartments...),
		UsersPerDept: perDept,
		Start:        0,
		End:          cert.Day(opt.start + opt.days*len(opt.concurrency) + opt.probeDays + 1),
	}
	gen, err := cert.New(gcfg)
	if err != nil {
		return err
	}
	population := gen.Users()
	fmt.Fprintf(stdout, "acobeload: %d users (%d/department), mode=%s, days %d..%d\n",
		len(population), perDept, opt.mode, opt.start, opt.start+opt.days*len(opt.concurrency)-1)

	base := opt.target
	if opt.self {
		shutdown, addr, err := startSelf(gen, opt)
		if err != nil {
			return err
		}
		defer shutdown()
		base = "http://" + addr
		fmt.Fprintf(stdout, "acobeload: in-process daemon (shards=%d) on %s\n", opt.shards, base)
	}

	maxConc := opt.rankWorkers
	for _, c := range opt.concurrency {
		if c > maxConc {
			maxConc = c
		}
	}
	client := &http.Client{Transport: &http.Transport{
		MaxIdleConns:        maxConc * 2,
		MaxIdleConnsPerHost: maxConc * 2,
	}}

	report := loadReport{
		Users: len(population), Mode: opt.mode, StartDay: opt.start,
		DaysPerLevel: opt.days, BatchEvents: opt.batch,
		GoVersion: runtime.Version(), GOMAXPROCS: runtime.GOMAXPROCS(0),
	}
	if opt.self {
		report.Shards = opt.shards
	}
	day := opt.start
	for _, conc := range opt.concurrency {
		lvl, err := runLevel(ctx, client, base, gen, population, day, conc, opt)
		if err != nil {
			return fmt.Errorf("level concurrency=%d: %w", conc, err)
		}
		fmt.Fprintf(stdout, "acobeload: c=%-3d days %d..%d  %9d events  %8.0f events/s  p50 %s  p99 %s\n",
			conc, lvl.FromDay, lvl.ToDay, lvl.Events, lvl.EventsPerS,
			time.Duration(lvl.IngestP50US)*time.Microsecond,
			time.Duration(lvl.IngestP99US)*time.Microsecond)
		report.Sweep = append(report.Sweep, lvl)
		day += opt.days
	}

	if !opt.skipRetrain {
		ret, err := retrainPhase(ctx, client, base, day-1, opt)
		if err != nil {
			return fmt.Errorf("retrain phase: %w", err)
		}
		if ret != nil {
			fmt.Fprintf(stdout, "acobeload: fit %.2fs, retrain %.2fs with %d ranks in flight (%.2f ranks/s)\n",
				ret.InitialFitS, ret.RetrainS, ret.Ranks, ret.RanksPerS)
			report.Retrain = ret
		}
	}

	if !opt.skipProbe && opt.probeDays > 0 && report.Retrain != nil {
		probe, err := probePhase(ctx, client, base, gen, population, day, opt)
		if err != nil {
			return fmt.Errorf("rank-during-close probe: %w", err)
		}
		for _, c := range probe.Closes {
			fmt.Fprintf(stdout, "acobeload: probe day %d  close %.3fs  %d ranks in flight\n", c.Day, c.CloseS, c.Ranks)
		}
		fmt.Fprintf(stdout, "acobeload: rank-during-close stalls p50 %s  p90 %s  p99 %s  max %s (%d ranks)\n",
			time.Duration(probe.RankP50US)*time.Microsecond,
			time.Duration(probe.RankP90US)*time.Microsecond,
			time.Duration(probe.RankP99US)*time.Microsecond,
			time.Duration(probe.RankMaxUS)*time.Microsecond,
			probe.Ranks)
		report.RankDuringClose = probe
	}

	if stages, err := fetchServerStages(ctx, client, base); err == nil {
		report.ServerStages = stages
	} else {
		fmt.Fprintf(stdout, "acobeload: server stage stats unavailable: %v\n", err)
	}

	enc := json.NewEncoder(stdout)
	enc.SetIndent("", "  ")
	return enc.Encode(report)
}

// probePhase is the rank-during-close probe: for each probe day it
// ingests the day, brings an open-loop rank stream to steady state, and
// then forces the day close while the ranks keep being released on
// schedule. Rank latency is measured from each rank's *scheduled* time
// (coordinated omission counts), so a close that blocks ranking for its
// whole merge shows up directly in the stall percentiles.
func probePhase(ctx context.Context, client *http.Client, base string, gen *cert.Generator, population []cert.User, from int, opt options) (*probeReport, error) {
	if opt.rankRate <= 0 {
		return nil, errors.New("-rank-rate must be positive")
	}
	first := opt.start + (opt.window - 1) + (opt.matrixDays - 1)
	rankURL := fmt.Sprintf("%s/v1/rank?from=%d&to=%d&top=%d", base, first, from-1, opt.top)
	res := &probeReport{
		Days: opt.probeDays, RankRatePerS: opt.rankRate, RankWorkers: opt.rankWorkers,
	}
	var (
		hist    obs.Histogram
		ranks   atomic.Int64
		scratch obs.Histogram // ingest latencies, not part of the probe's report
		events  atomic.Int64
		batches atomic.Int64
	)
	for d := from; d < from+opt.probeDays; d++ {
		if err := ingestDayClosed(ctx, client, base, gen, population, cert.Day(d), 2, opt.batch, &scratch, &events, &batches); err != nil {
			return nil, err
		}

		stop := make(chan struct{})
		errs := make(chan error, opt.rankWorkers+1)
		type slot struct{ scheduled time.Time }
		slots := make(chan slot, opt.rankWorkers*2)
		var wg sync.WaitGroup
		for w := 0; w < opt.rankWorkers; w++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for s := range slots {
					if err := get(ctx, client, rankURL); err != nil {
						errs <- err
						return
					}
					hist.Observe(time.Since(s.scheduled))
					ranks.Add(1)
				}
			}()
		}
		wg.Add(1)
		go func() {
			defer wg.Done()
			defer close(slots)
			interval := time.Duration(float64(time.Second) / opt.rankRate)
			t0 := time.Now()
			for k := 0; ; k++ {
				sched := t0.Add(time.Duration(k) * interval)
				if wait := time.Until(sched); wait > 0 {
					select {
					case <-stop:
						return
					case <-time.After(wait):
					}
				}
				select {
				case <-stop:
					return
				case slots <- slot{scheduled: sched}:
				}
			}
		}()

		// Steady state before the close, a short tail after it so a
		// post-close backlog drains into the stall histogram too.
		time.Sleep(300 * time.Millisecond)
		before := ranks.Load()
		closeStart := time.Now()
		err := post(ctx, client, fmt.Sprintf("%s/v1/close?day=%d", base, d))
		closeDur := time.Since(closeStart)
		time.Sleep(200 * time.Millisecond)
		close(stop)
		wg.Wait()
		if err != nil {
			return nil, err
		}
		select {
		case err := <-errs:
			return nil, err
		default:
		}
		res.Closes = append(res.Closes, probeClose{Day: d, CloseS: closeDur.Seconds(), Ranks: ranks.Load() - before})
	}
	s := hist.Snapshot()
	res.Ranks = ranks.Load()
	res.RankP50US = s.Quantile(0.50).Microseconds()
	res.RankP90US = s.Quantile(0.90).Microseconds()
	res.RankP99US = s.Quantile(0.99).Microseconds()
	res.RankMaxUS = time.Duration(s.MaxNanos).Microseconds()
	return res, nil
}

// startSelf boots an in-process daemon on a loopback port, mirroring how
// cmd/acobed wires one up, with a deliberately tiny model configuration:
// the harness measures the serving machinery, not detection quality.
func startSelf(gen *cert.Generator, opt options) (func(), string, error) {
	deptIndex := make(map[string]int)
	for i, d := range gen.Departments() {
		deptIndex[d] = i
	}
	var (
		ids        []string
		membership []int
	)
	for _, u := range gen.Users() {
		ids = append(ids, u.ID)
		membership = append(membership, deptIndex[u.Department])
	}
	cfg := daemon.Config{
		Users:      ids,
		Groups:     gen.Departments(),
		Membership: membership,
		Start:      cert.Day(opt.start),
		Deviation: deviation.Config{
			Window: opt.window, MatrixDays: opt.matrixDays,
			Delta: 3, Epsilon: 1, Weighted: true,
		},
		DetectorOptions: []acobe.Option{
			acobe.WithAspects(acobe.ACOBEAspects()...),
			acobe.WithSeed(opt.seed),
			acobe.WithVotes(2),
			acobe.WithTrainStride(1),
			acobe.WithModelConfig(func(dim int) acobe.ModelConfig {
				mc := acobe.FastModelConfig(dim)
				mc.Hidden = []int{16, 8}
				mc.Epochs = opt.epochs
				return mc
			}),
		},
	}
	srv, _, err := daemon.Start(cfg,
		daemon.WithShards(opt.shards),
		daemon.WithObserver(daemon.NewObserver()),
	)
	if err != nil {
		return nil, "", err
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		_ = srv.Shutdown(context.Background())
		return nil, "", err
	}
	hs := &http.Server{Handler: srv.Handler()}
	go func() { _ = hs.Serve(ln) }()
	shutdown := func() {
		sctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		defer cancel()
		_ = hs.Shutdown(sctx)
		_ = srv.Shutdown(sctx)
	}
	return shutdown, ln.Addr().String(), nil
}

// runLevel ingests [from, from+days) at the given concurrency and closes
// each day behind its ingest barrier, exactly like a production feeder.
func runLevel(ctx context.Context, client *http.Client, base string, gen *cert.Generator, population []cert.User, from, conc int, opt options) (levelResult, error) {
	var (
		hist    obs.Histogram
		events  atomic.Int64
		batches atomic.Int64
	)
	t0 := time.Now()
	for d := from; d < from+opt.days; d++ {
		var err error
		if opt.mode == "closed" {
			err = ingestDayClosed(ctx, client, base, gen, population, cert.Day(d), conc, opt.batch, &hist, &events, &batches)
		} else {
			err = ingestDayOpen(ctx, client, base, gen, population, cert.Day(d), conc, opt, &hist, &events, &batches)
		}
		if err != nil {
			return levelResult{}, err
		}
		if err := post(ctx, client, fmt.Sprintf("%s/v1/close?day=%d", base, d)); err != nil {
			return levelResult{}, err
		}
	}
	elapsed := time.Since(t0)
	s := hist.Snapshot()
	lvl := levelResult{
		Concurrency: conc, FromDay: from, ToDay: from + opt.days - 1,
		Events: events.Load(), Batches: batches.Load(),
		ElapsedS:    elapsed.Seconds(),
		IngestP50US: s.Quantile(0.50).Microseconds(),
		IngestP90US: s.Quantile(0.90).Microseconds(),
		IngestP99US: s.Quantile(0.99).Microseconds(),
		IngestMaxUS: (time.Duration(s.MaxNanos)).Microseconds(),
	}
	if elapsed > 0 {
		lvl.EventsPerS = float64(lvl.Events) / elapsed.Seconds()
	}
	if opt.mode == "open" {
		lvl.OpenTargetRate = opt.rate
	}
	return lvl, nil
}

// ingestDayClosed drives one day closed-loop: each worker owns a stripe of
// the population, generates its users' events, and posts batch after batch
// back-to-back.
func ingestDayClosed(ctx context.Context, client *http.Client, base string, gen *cert.Generator, population []cert.User, d cert.Day, conc, batchSize int, hist *obs.Histogram, events, batches *atomic.Int64) error {
	var wg sync.WaitGroup
	errs := make(chan error, conc)
	for w := 0; w < conc; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			var (
				buf []byte
				n   int
			)
			flush := func() error {
				if n == 0 {
					return nil
				}
				start := time.Now()
				if err := postNDJSON(ctx, client, base, bytes.NewReader(buf)); err != nil {
					return err
				}
				hist.Observe(time.Since(start))
				events.Add(int64(n))
				batches.Add(1)
				buf = buf[:0]
				n = 0
				return nil
			}
			for i := w; i < len(population); i += conc {
				evs := gen.UserDay(population[i], d)
				for j := range evs {
					var err error
					if buf, err = appendLine(buf, &evs[j]); err != nil {
						errs <- err
						return
					}
					if n++; n >= batchSize {
						if err := flush(); err != nil {
							errs <- err
							return
						}
					}
				}
			}
			if err := flush(); err != nil {
				errs <- err
			}
		}(w)
	}
	wg.Wait()
	select {
	case err := <-errs:
		return err
	default:
		return nil
	}
}

// ingestDayOpen drives one day open-loop: a single dispatcher generates
// batches and releases them at -rate per second to a pool of conc senders.
// Latency is measured from each batch's scheduled release time, so when
// the daemon (or a saturated sender pool) falls behind, the backlog shows
// up as latency instead of silently stretching the schedule.
func ingestDayOpen(ctx context.Context, client *http.Client, base string, gen *cert.Generator, population []cert.User, d cert.Day, conc int, opt options, hist *obs.Histogram, events, batches *atomic.Int64) error {
	if opt.rate <= 0 {
		return errors.New("-rate must be positive in open mode")
	}
	type job struct {
		body      []byte
		count     int
		scheduled time.Time
	}
	jobs := make(chan job, conc*2)
	errs := make(chan error, conc+1)
	var wg sync.WaitGroup
	for w := 0; w < conc; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := range jobs {
				if err := postNDJSON(ctx, client, base, bytes.NewReader(j.body)); err != nil {
					errs <- err
					return
				}
				hist.Observe(time.Since(j.scheduled))
				events.Add(int64(j.count))
				batches.Add(1)
			}
		}()
	}

	interval := time.Duration(float64(time.Second) / opt.rate)
	t0 := time.Now()
	k := 0
	var (
		buf []byte
		n   int
	)
	dispatch := func() {
		if n == 0 {
			return
		}
		sched := t0.Add(time.Duration(k) * interval)
		k++
		if wait := time.Until(sched); wait > 0 {
			time.Sleep(wait)
		}
		jobs <- job{body: bytes.Clone(buf), count: n, scheduled: sched}
		buf = buf[:0]
		n = 0
	}
	var genErr error
	for _, u := range population {
		evs := gen.UserDay(u, d)
		for j := range evs {
			if buf, genErr = appendLine(buf, &evs[j]); genErr != nil {
				break
			}
			if n++; n >= opt.batch {
				dispatch()
			}
		}
		if genErr != nil {
			break
		}
	}
	if genErr == nil {
		dispatch()
	}
	close(jobs)
	wg.Wait()
	if genErr != nil {
		return genErr
	}
	select {
	case err := <-errs:
		return err
	default:
		return nil
	}
}

// retrainPhase fits the ensemble once (timed), then launches a second
// retrain over the same span and hammers /v1/rank until it completes.
func retrainPhase(ctx context.Context, client *http.Client, base string, lastDay int, opt options) (*retrainResult, error) {
	first := opt.start + (opt.window - 1) + (opt.matrixDays - 1)
	if lastDay < first {
		return nil, nil // not enough closed days for a compound matrix
	}
	retrainURL := fmt.Sprintf("%s/v1/retrain?from=%d&to=%d&wait=1", base, first, lastDay)
	rankURL := fmt.Sprintf("%s/v1/rank?from=%d&to=%d&top=%d", base, first, lastDay, opt.top)

	fitStart := time.Now()
	if err := post(ctx, client, retrainURL); err != nil {
		return nil, err
	}
	fit := time.Since(fitStart)

	var (
		retrainDur time.Duration
		retrainErr error
		done       = make(chan struct{})
		ranks      atomic.Int64
		rankHist   obs.Histogram
	)
	go func() {
		defer close(done)
		t := time.Now()
		retrainErr = post(ctx, client, retrainURL)
		retrainDur = time.Since(t)
	}()
	var wg sync.WaitGroup
	rankErrs := make(chan error, opt.rankWorkers)
	for w := 0; w < opt.rankWorkers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-done:
					return
				default:
				}
				t := time.Now()
				if err := get(ctx, client, rankURL); err != nil {
					rankErrs <- err
					return
				}
				rankHist.Observe(time.Since(t))
				ranks.Add(1)
			}
		}()
	}
	<-done
	wg.Wait()
	if retrainErr != nil {
		return nil, retrainErr
	}
	select {
	case err := <-rankErrs:
		return nil, err
	default:
	}
	s := rankHist.Snapshot()
	res := &retrainResult{
		InitialFitS: fit.Seconds(),
		RetrainS:    retrainDur.Seconds(),
		Ranks:       ranks.Load(),
		RankWorkers: opt.rankWorkers,
		RankP50US:   s.Quantile(0.50).Microseconds(),
		RankP99US:   s.Quantile(0.99).Microseconds(),
	}
	if retrainDur > 0 {
		res.RanksPerS = float64(res.Ranks) / retrainDur.Seconds()
	}
	return res, nil
}

// fetchServerStages pulls the daemon's own per-stage histograms from
// /v1/status and keeps the rows a load report should pin: the write path
// (apply), the close barrier and its global re-merge (the ROADMAP's
// "factory-based shard ingest re-merges" cost), and the read/train path.
func fetchServerStages(ctx context.Context, client *http.Client, base string) ([]obs.StageStats, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, base+"/v1/status", nil)
	if err != nil {
		return nil, err
	}
	resp, err := client.Do(req)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, err
	}
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("/v1/status: %s", resp.Status)
	}
	var doc struct {
		Metrics *obs.Snapshot `json:"metrics"`
	}
	if err := json.Unmarshal(body, &doc); err != nil {
		return nil, err
	}
	if doc.Metrics == nil {
		return nil, errors.New("status carries no metrics snapshot (observer disabled?)")
	}
	keep := []string{obs.StageApply, obs.StageClose, obs.StageMerge, obs.StageMergePublish, obs.StageSnapshot, obs.StageRank, obs.StageRetrain}
	var out []obs.StageStats
	for _, name := range keep {
		for _, st := range doc.Metrics.Stages {
			if st.Stage == name && st.Count > 0 {
				out = append(out, st)
			}
		}
	}
	return out, nil
}

// loadReport is the JSON document a run prints last.
type loadReport struct {
	Users        int            `json:"users"`
	Shards       int            `json:"shards,omitempty"`
	Mode         string         `json:"mode"`
	StartDay     int            `json:"start_day"`
	DaysPerLevel int            `json:"days_per_level"`
	BatchEvents  int            `json:"batch_events"`
	GoVersion    string         `json:"go_version"`
	GOMAXPROCS   int            `json:"gomaxprocs"`
	Sweep        []levelResult  `json:"sweep"`
	Retrain      *retrainResult `json:"retrain,omitempty"`
	// RankDuringClose is the probe's result; absent when the probe was
	// skipped or no retrain ran before it.
	RankDuringClose *probeReport `json:"rank_during_close,omitempty"`
	// ServerStages are the daemon's own per-stage histograms after the
	// run (from /v1/status), so the report pins server-side costs —
	// notably close_merge, the global re-merge behind every sharded
	// day close — next to the client-side latency curves.
	ServerStages []obs.StageStats `json:"server_stages,omitempty"`
}

type levelResult struct {
	Concurrency    int     `json:"concurrency"`
	FromDay        int     `json:"from_day"`
	ToDay          int     `json:"to_day"`
	Events         int64   `json:"events"`
	Batches        int64   `json:"batches"`
	ElapsedS       float64 `json:"elapsed_s"`
	EventsPerS     float64 `json:"events_per_s"`
	IngestP50US    int64   `json:"ingest_p50_us"`
	IngestP90US    int64   `json:"ingest_p90_us"`
	IngestP99US    int64   `json:"ingest_p99_us"`
	IngestMaxUS    int64   `json:"ingest_max_us"`
	OpenTargetRate float64 `json:"open_target_batches_per_s,omitempty"`
}

type retrainResult struct {
	InitialFitS float64 `json:"initial_fit_s"`
	RetrainS    float64 `json:"retrain_s"`
	Ranks       int64   `json:"ranks"`
	RanksPerS   float64 `json:"ranks_per_s_during_retrain"`
	RankWorkers int     `json:"rank_workers"`
	RankP50US   int64   `json:"rank_p50_us"`
	RankP99US   int64   `json:"rank_p99_us"`
}

// probeReport is the rank-during-close probe's result: open-loop rank
// stall percentiles measured across forced day closes, plus the
// per-close wall time. (Of the report's server stages, close_merge is
// the group fill of each closed day and merge_publish the publish,
// neither of which a rank waits on.)
type probeReport struct {
	Days         int          `json:"days"`
	RankRatePerS float64      `json:"rank_rate_per_s"`
	RankWorkers  int          `json:"rank_workers"`
	Ranks        int64        `json:"ranks"`
	RankP50US    int64        `json:"rank_p50_us"`
	RankP90US    int64        `json:"rank_p90_us"`
	RankP99US    int64        `json:"rank_p99_us"`
	RankMaxUS    int64        `json:"rank_max_us"`
	Closes       []probeClose `json:"closes"`
}

type probeClose struct {
	Day    int     `json:"day"`
	CloseS float64 `json:"close_s"`
	Ranks  int64   `json:"ranks_in_flight"`
}

// appendLine appends ev to an ingest body as one line, in the daemon's
// own wire encoding: with -self the generator shares the process, so what
// encoding costs here comes out of the daemon being measured.
func appendLine(body []byte, ev *cert.Event) ([]byte, error) {
	body, err := daemon.AppendEvent(body, daemon.Event{Cert: ev})
	return append(body, '\n'), err
}

func postNDJSON(ctx context.Context, client *http.Client, base string, body io.Reader) error {
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, base+"/v1/ingest", body)
	if err != nil {
		return err
	}
	req.Header.Set("Content-Type", "application/x-ndjson")
	return checkResp(client.Do(req))
}

func post(ctx context.Context, client *http.Client, url string) error {
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, url, nil)
	if err != nil {
		return err
	}
	return checkResp(client.Do(req))
}

func get(ctx context.Context, client *http.Client, url string) error {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, url, nil)
	if err != nil {
		return err
	}
	return checkResp(client.Do(req))
}

func checkResp(resp *http.Response, err error) error {
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	body, _ := io.ReadAll(resp.Body)
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("%s: %s: %s", resp.Request.URL, resp.Status, bytes.TrimSpace(body))
	}
	return nil
}

func parseInts(s string) ([]int, error) {
	var out []int
	for _, p := range strings.Split(s, ",") {
		if p = strings.TrimSpace(p); p == "" {
			continue
		}
		n, err := strconv.Atoi(p)
		if err != nil {
			return nil, err
		}
		if n < 1 {
			return nil, fmt.Errorf("count %d must be positive", n)
		}
		out = append(out, n)
	}
	return out, nil
}
