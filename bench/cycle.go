package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"acobe/internal/cert"
	"acobe/pkg/acobe"
	"acobe/pkg/acobe/daemon"
)

// daemonConfig is the serving configuration every workload shares.
func daemonConfig(sp spec, in *inputs, seed uint64) daemon.Config {
	return daemon.Config{
		Users:           in.ids,
		Groups:          in.groups,
		Membership:      in.membership,
		Start:           cert.Day(sp.FirstDay),
		Deviation:       sp.deviation(),
		DetectorOptions: detectorOptions(sp.Hidden, sp.Epochs, seed),
	}
}

func detectorOptions(hidden []int, epochs int, seed uint64) []acobe.Option {
	return []acobe.Option{
		acobe.WithAspects(acobe.ACOBEAspects()...),
		acobe.WithSeed(seed),
		acobe.WithVotes(2),
		acobe.WithTrainStride(1),
		acobe.WithModelConfig(func(dim int) acobe.ModelConfig {
			mc := acobe.FastModelConfig(dim)
			mc.Hidden = append([]int(nil), hidden...)
			mc.Epochs = epochs
			return mc
		}),
	}
}

// cycle is one daemon life: start, preload, the timed days, the measured
// retrain, the output checks and, when durable, the recoveries.
type cycle struct {
	sp   spec
	in   *inputs
	seed uint64
	out  *samples
	tr   *tracer // nil in untraced cycles
	root int     // the cycle's root span
	cal  *calibrator

	srv    *daemon.Server
	hs     *http.Server
	served chan struct{}
	base   string
	client *http.Client
	dir    string // data dir when durable
	sent   int    // events submitted so far
	fitted bool
	newest atomic.Int64 // open loop: the newest closed day, which the reader ranks

	closedAt  time.Time // when the last timed CloseDay was issued
	closeSpan int       // its span
}

// runCycle drives one full daemon life, number n of the run, and records
// its measurements in out. It returns the final ranked list (JSON) for the
// oracle check.
func runCycle(ctx context.Context, sp spec, in *inputs, seed uint64, n int, out *samples, tr *tracer, cal *calibrator, tmpDir string) ([]byte, error) {
	c := &cycle{sp: sp, in: in, seed: seed, out: out, tr: tr, cal: cal}
	c.root = tr.begin("cycle", -1, int64(n))
	defer tr.end(c.root)
	c.newest.Store(int64(sp.FitDay))

	if sp.Durable {
		dir, err := os.MkdirTemp(tmpDir, "acobe-bench-*")
		if err != nil {
			return nil, err
		}
		c.dir = dir
		defer os.RemoveAll(dir)
	}

	// Baseline for resident bytes: the inputs are resident before the
	// daemon exists and stay so, so they cancel in the difference. Two
	// collections each time, so that sync.Pool contents (HTTP buffers)
	// are dropped rather than counted on some runs and not on others.
	runtime.GC()
	runtime.GC()
	var base runtime.MemStats
	runtime.ReadMemStats(&base)

	acked := len(out.ackMS) // this cycle's acks start here
	setup := 0.0
	t0 := time.Now()
	sid := tr.begin("setup", c.root, 0)
	if err := c.start(); err != nil {
		return nil, err
	}
	defer c.stop(ctx)
	setup += time.Since(t0).Seconds()

	var (
		scrape0 *daemon.Metrics
		windowS float64
		mem     memDelta
	)
	for d := sp.FirstDay; d <= sp.LastDay; d++ {
		di := in.days[d]
		if d < sp.TimedFrom {
			t0 = time.Now()
			if err := c.preload(ctx, di, sid); err != nil {
				return nil, err
			}
			setup += time.Since(t0).Seconds()
		} else {
			if d == sp.TimedFrom {
				tr.end(sid)
				scrape0 = c.srv.MetricsSnapshot()
				if sp.OpenLoop {
					c.quiescent(ctx)
				}
			}
			stopReader := func() {}
			if sp.OpenLoop {
				stopReader = c.startReader(ctx)
			}
			if tr != nil {
				mem.open()
			}
			w, err := c.timedDay(ctx, di)
			stopReader()
			if err != nil {
				return nil, err
			}
			if tr != nil {
				mem.close()
			}
			windowS += w
		}
		if d == sp.FitDay {
			t0 = time.Now()
			id := tr.begin("serve.retrain.setup", c.root, int64(d))
			err := c.srv.Retrain(ctx, cert.Day(sp.firstScoreable()), cert.Day(d), true)
			tr.end(id)
			if !out.op("set-up retrain", err) {
				return nil, err
			}
			c.fitted = true
			setup += time.Since(t0).Seconds()
		}
		if d >= sp.TimedFrom && c.fitted {
			if !sp.OpenLoop {
				c.ranks(ctx, d)
			}
		}
		if d >= sp.TimedFrom {
			out.sampleRSS()
			cal.sample() // between windows, with nothing else running
		}
	}
	v, used := tail(out.ackMS[acked:], 0.99)
	out.ackTailMS, out.ackTailUsed = append(out.ackTailMS, v), used
	out.setupS = append(out.setupS, setup)
	timedEv := 0
	for d := sp.TimedFrom; d <= sp.LastDay; d++ {
		timedEv += in.days[d].n
	}
	out.cycleRate = append(out.cycleRate, float64(timedEv)/windowS)
	if tr != nil {
		out.layer.windowS += windowS
		out.layer.windowEv += timedEv
	}

	// Resident bytes, with the daemon alive and every day closed.
	runtime.GC()
	runtime.GC()
	var end runtime.MemStats
	runtime.ReadMemStats(&end)
	out.residentB = append(out.residentB, float64(end.HeapAlloc)-float64(base.HeapAlloc))

	c.checkStatus()
	for k := 0; k < sp.Retrains; k++ {
		if err := c.measuredRetrain(ctx); err != nil {
			return nil, err
		}
		cal.sample()
	}
	out.sampleRSS()
	if tr != nil {
		c.rankOverhead(ctx)
		out.layer.add(scrape0, c.srv.MetricsSnapshot(), mem, end)
	}

	list, err := c.srv.Rank(ctx, cert.Day(sp.rankFrom(sp.LastDay)), cert.Day(sp.LastDay))
	if !out.op("final rank", err) {
		return nil, err
	}
	final, err := json.Marshal(list)
	if err != nil {
		return nil, err
	}
	c.stop(ctx)
	cal.sample()
	if sp.Durable {
		c.recoveries(ctx, c.dir, sp.LastDay)
	} else if err := c.durablePhase(ctx, tmpDir); err != nil {
		return nil, err
	}
	return final, nil
}

// start boots the daemon and mounts its handler on a loopback port.
func (c *cycle) start() error {
	id := c.tr.begin("daemon.start", c.root, 0)
	defer c.tr.end(id)
	srv, _, err := daemon.Start(daemonConfig(c.sp, c.in, c.seed), c.options(c.dir)...)
	if !c.out.op("daemon start", err) {
		return err
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		_ = srv.Shutdown(context.Background()) // the listen error is the one to report
		return err
	}
	c.srv = srv
	c.hs = &http.Server{Handler: srv.Handler()}
	c.served = make(chan struct{})
	go func() {
		defer close(c.served)
		_ = c.hs.Serve(ln) // returns ErrServerClosed on Shutdown
	}()
	c.base = "http://" + ln.Addr().String()
	c.client = &http.Client{Transport: &http.Transport{MaxIdleConns: 8, MaxIdleConnsPerHost: 8}}
	return nil
}

// options are the workload's daemon options, durable when dir is set;
// traced cycles attach an observer so exact stage counts and sums can be
// scraped.
func (c *cycle) options(dir string) []daemon.Option {
	opts := []daemon.Option{daemon.WithShards(c.sp.Shards)}
	if c.tr != nil {
		opts = append(opts, daemon.WithObserver(daemon.NewObserver()))
	}
	if dir != "" {
		opts = append(opts,
			daemon.WithDataDir(dir),
			daemon.WithFsync(daemon.FsyncClose),
			daemon.WithAudit(),
			daemon.WithSnapshotEvery(c.sp.SnapshotEvery))
	}
	return opts
}

// stop shuts the listener and the daemon down and waits for both. It is
// safe to call twice.
func (c *cycle) stop(ctx context.Context) {
	if c.srv == nil {
		return
	}
	id := c.tr.begin("daemon.shutdown", c.root, 0)
	defer c.tr.end(id)
	sctx, cancel := context.WithTimeout(ctx, 30*time.Second)
	defer cancel()
	_ = c.hs.Shutdown(sctx)
	<-c.served
	c.client.CloseIdleConnections()
	c.out.op("daemon shutdown", c.srv.Shutdown(sctx))
	c.srv = nil
}

// preload submits and closes one set-up day in-process.
func (c *cycle) preload(ctx context.Context, di *dayInput, parent int) error {
	id := c.tr.begin("preload", parent, int64(di.day))
	defer c.tr.end(id)
	for _, b := range di.batches {
		if err := c.srv.Submit(ctx, b); err != nil {
			return fmt.Errorf("preload day %d: %w", di.day, err)
		}
	}
	c.sent += di.n
	if err := c.srv.CloseDay(ctx, cert.Day(di.day)); err != nil {
		return fmt.Errorf("preload close day %d: %w", di.day, err)
	}
	return nil
}

// send delivers batch i of the day by the workload's transport.
func (c *cycle) send(ctx context.Context, di *dayInput, i int) error {
	if c.sp.HTTP {
		return c.post(ctx, "/v1/ingest", bytes.NewReader(di.bodies[i]))
	}
	return c.srv.Submit(ctx, di.batches[i])
}

func (c *cycle) batchCount(di *dayInput) int {
	if c.sp.HTTP {
		return len(di.bodies)
	}
	return len(di.batches)
}

// closeDay closes d by the workload's transport.
func (c *cycle) closeDay(ctx context.Context, d int) error {
	if c.sp.HTTP {
		return c.post(ctx, fmt.Sprintf("/v1/close?day=%d", d), nil)
	}
	return c.srv.CloseDay(ctx, cert.Day(d))
}

// timedDay is one timed window: the first byte of the day's first batch
// sent → the day's close acked. It returns the window's length.
func (c *cycle) timedDay(ctx context.Context, di *dayInput) (float64, error) {
	if generating.Load() != 0 {
		c.out.op("idle check", errors.New("input generation running as a timed window opens"))
	}
	n := c.batchCount(di)
	acks := make([]float64, n)
	late := make([]float64, 0, n)
	day := c.tr.begin("day", c.root, int64(di.day))
	t0 := time.Now()

	one := func(i int, from time.Time) {
		id := c.tr.begin("ingest.batch", day, int64(i))
		err := c.send(ctx, di, i)
		c.tr.end(id)
		acks[i] = msSince(from)
		c.out.op("ingest", err)
	}
	if c.sp.OpenLoop {
		// Open loop: batch i is due at t0 + i/rate whether or not earlier
		// ones were acked in time; latency counts from the due time.
		interval := time.Duration(float64(time.Second) / c.sp.RatePerS)
		for i := 0; i < n; i++ {
			due := t0.Add(time.Duration(i) * interval)
			if wait := time.Until(due); wait > 0 {
				time.Sleep(wait)
			}
			late = append(late, msSince(due))
			one(i, due)
		}
	} else {
		var next atomic.Int64
		var wg sync.WaitGroup
		for w := 0; w < c.sp.Clients; w++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for {
					i := int(next.Add(1)) - 1
					if i >= n {
						return
					}
					one(i, time.Now())
				}
			}()
		}
		wg.Wait()
	}
	c.sent += di.n

	tc := time.Now()
	id := c.tr.begin("serve.close", day, int64(di.day))
	err := c.closeDay(ctx, di.day)
	c.tr.end(id)
	closeS := time.Since(tc).Seconds()
	c.closedAt, c.closeSpan = tc, id
	window := time.Since(t0).Seconds()
	c.tr.end(day)
	if !c.out.op("close", err) {
		return 0, err
	}
	if generating.Load() != 0 {
		c.out.op("idle check", errors.New("input generation running as a timed window closes"))
	}

	o := c.out
	if !cert.Day(di.day).IsWeekend() {
		o.weekdayEv = append(o.weekdayEv, float64(di.n))
		o.weekdayRate = append(o.weekdayRate, float64(di.n)/window)
	}
	o.ackMS = append(o.ackMS, acks...)
	if len(acks) > 0 {
		o.ackDayMS = append(o.ackDayMS, median(acks))
	}
	o.lateMS = append(o.lateMS, late...)
	if c.sp.Durable && cutSnapshot(c.dir, di.day) {
		o.snapCloseS = append(o.snapCloseS, closeS)
	}
	if c.sp.OpenLoop {
		// The sender asks for the list covering the day it just closed.
		c.coldRank(ctx, di.day)
		c.newest.Store(int64(di.day))
	}
	return window, nil
}

// msSince is the time since t in milliseconds.
func msSince(t time.Time) float64 { return float64(time.Since(t).Nanoseconds()) / 1e6 }

// coldRank issues the first rank covering the day just closed and
// records close→rank: CloseDay issued → that list returned.
func (c *cycle) coldRank(ctx context.Context, d int) {
	o := c.out
	t := time.Now()
	id := c.tr.begin("serve.rank.cold", c.root, int64(d))
	err := c.rank(ctx, d)
	c.tr.end(id)
	if !o.op("cold rank", err) {
		return
	}
	o.coldMS = append(o.coldMS, msSince(t))
	whole := time.Since(c.closedAt).Seconds()
	o.closeToRankS = append(o.closeToRankS, whole)
	if c.tr != nil {
		o.layer.closeToRankS += whole
		o.layer.closeRankSpanS += c.tr.duration(c.closeSpan) + c.tr.duration(id)
	}
}

// startReader starts the closed-loop rank reader that runs beside the
// open-loop sender for one day's window, always asking for the newest
// closed day. The returned function stops it, waits for it and pools its
// latencies.
func (c *cycle) startReader(ctx context.Context) (stop func()) {
	quit := make(chan struct{})
	done := make(chan []float64)
	go func() {
		var ms []float64
		for k := int64(0); ; k++ {
			select {
			case <-quit:
				done <- ms
				return
			default:
			}
			t := time.Now()
			id := c.tr.begin("serve.rank.warm", c.root, k)
			err := c.rankHTTP(ctx, int(c.newest.Load()))
			c.tr.end(id)
			if c.out.op("rank beside ingest", err) {
				ms = append(ms, msSince(t))
			}
		}
	}()
	return func() {
		close(quit)
		ms := <-done
		c.out.warmMS = append(c.out.warmMS, ms...)
		if len(ms) > 0 {
			c.out.warmDayMS = append(c.out.warmDayMS, median(ms))
		}
	}
}

// cutSnapshot reports whether closing d published a snapshot in dir.
func cutSnapshot(dir string, d int) bool {
	m, _ := filepath.Glob(filepath.Join(dir, fmt.Sprintf("*%08d.snap", d)))
	return len(m) > 0
}

// rank asks for the 7-day list ending at d by the workload's transport.
func (c *cycle) rank(ctx context.Context, d int) error {
	if c.sp.HTTP {
		return c.rankHTTP(ctx, d)
	}
	list, err := c.srv.Rank(ctx, cert.Day(c.sp.rankFrom(d)), cert.Day(d))
	if err == nil && len(list) != len(c.in.ids) {
		err = fmt.Errorf("rank day %d: %d rows, want %d", d, len(list), len(c.in.ids))
	}
	return err
}

// ranks issues the cold rank for the day just closed, then the warm
// repeats.
func (c *cycle) ranks(ctx context.Context, d int) {
	o := c.out
	c.coldRank(ctx, d)
	from := len(o.warmMS)
	for k := 0; k < c.sp.WarmRanks; k++ {
		t := time.Now()
		id := c.tr.begin("serve.rank.warm", c.root, int64(d))
		err := c.rank(ctx, d)
		c.tr.end(id)
		if o.op("warm rank", err) {
			o.warmMS = append(o.warmMS, msSince(t))
		}
	}
	if day := o.warmMS[from:]; len(day) > 0 {
		o.warmDayMS = append(o.warmDayMS, median(day))
	}
}

// quiescent times ranks on the last preloaded day before the open-loop
// sender starts, as the reference for ranks taken beside ingest.
func (c *cycle) quiescent(ctx context.Context) {
	for k := 0; k < c.sp.WarmRanks; k++ {
		t := time.Now()
		id := c.tr.begin("serve.rank.quiescent", c.root, int64(c.sp.FitDay))
		err := c.rankHTTP(ctx, c.sp.FitDay)
		c.tr.end(id)
		if c.out.op("quiescent rank", err) {
			c.out.quiescentMS = append(c.out.quiescentMS, msSince(t))
		}
	}
}

// checkStatus is the ingest output check: every event sent was ingested,
// none was late, and the last day is closed.
func (c *cycle) checkStatus() {
	st := c.srv.Status()
	var err error
	if st.Ingested != int64(c.sent) || st.Late != 0 || int(st.ClosedThrough) != c.sp.LastDay {
		err = fmt.Errorf("ingested %d late %d closed_through %d, want %d, 0, %d",
			st.Ingested, st.Late, int(st.ClosedThrough), c.sent, c.sp.LastDay)
	}
	c.out.op("status check", err)
}

// measuredRetrain refits over the last RetrainDays days and waits, with
// one goroutine ranking in a loop the whole time.
func (c *cycle) measuredRetrain(ctx context.Context) error {
	sp, o := c.sp, c.out
	stop := make(chan struct{})
	done := make(chan int)
	rid := c.tr.begin("serve.retrain", c.root, int64(sp.LastDay))
	go func() {
		n := 0
		for {
			select {
			case <-stop:
				done <- n
				return
			default:
			}
			id := c.tr.begin("serve.rank.during_retrain", rid, int64(n))
			_, err := c.srv.Rank(ctx, cert.Day(sp.rankFrom(sp.LastDay)), cert.Day(sp.LastDay))
			c.tr.end(id)
			if o.op("rank during retrain", err) {
				n++
			}
		}
	}()
	t := time.Now()
	err := c.srv.Retrain(ctx, cert.Day(sp.LastDay-sp.RetrainDays+1), cert.Day(sp.LastDay), true)
	took := time.Since(t).Seconds()
	close(stop)
	n := <-done
	c.tr.end(rid)
	if !o.op("retrain", err) {
		return err
	}
	o.retrainS = append(o.retrainS, took)
	o.retrainRankS = append(o.retrainRankS, float64(n)/took)
	return nil
}

// rankOverhead times the same rank over HTTP and in-process on the final
// state (traced cycles, every workload: the listener is always mounted).
func (c *cycle) rankOverhead(ctx context.Context) {
	l := &c.out.layer
	for k := 0; k < 5; k++ {
		t := time.Now()
		id := c.tr.begin("serve.http.rank", c.root, int64(k))
		err := c.rankHTTP(ctx, c.sp.LastDay)
		c.tr.end(id)
		if c.out.op("http rank", err) {
			l.httpRankMS = append(l.httpRankMS, msSince(t))
		}
		t = time.Now()
		id = c.tr.begin("serve.rank.inproc", c.root, int64(k))
		_, err = c.srv.Rank(ctx, cert.Day(c.sp.rankFrom(c.sp.LastDay)), cert.Day(c.sp.LastDay))
		c.tr.end(id)
		if c.out.op("in-process rank", err) {
			l.inprocRankMS = append(l.inprocRankMS, msSince(t))
		}
	}
}

// durablePhase gives an in-memory workload its snapshot and recovery
// costs: a second, short daemon life of the same shape on disk (fsync at
// close, audit trail, a snapshot every SnapshotEvery closes) takes the
// first DurableDays days in-process, shuts down and is recovered.
func (c *cycle) durablePhase(ctx context.Context, tmpDir string) error {
	sp, o := c.sp, c.out
	dir, err := os.MkdirTemp(tmpDir, "acobe-bench-*")
	if err != nil {
		return err
	}
	defer os.RemoveAll(dir)
	root := c.tr.begin("durable", c.root, 0)
	defer c.tr.end(root)
	srv, _, err := daemon.Start(daemonConfig(sp, c.in, c.seed), c.options(dir)...)
	if !o.op("durable start", err) {
		return err
	}
	last := sp.FirstDay + sp.DurableDays - 1
	for d := sp.FirstDay; d <= last && err == nil; d++ {
		for _, b := range c.in.days[d].batches {
			if err = srv.Submit(ctx, b); err != nil {
				break
			}
		}
		if err != nil {
			break
		}
		t := time.Now()
		id := c.tr.begin("durable.close", root, int64(d))
		err = srv.CloseDay(ctx, cert.Day(d))
		c.tr.end(id)
		if err == nil && cutSnapshot(dir, d) {
			o.snapCloseS = append(o.snapCloseS, time.Since(t).Seconds())
		}
		c.cal.sample()
	}
	o.sampleRSS()
	if c.tr != nil {
		o.layer.addDurable(srv.MetricsSnapshot())
	}
	sctx, cancel := context.WithTimeout(ctx, 30*time.Second)
	defer cancel()
	if serr := srv.Shutdown(sctx); err == nil {
		err = serr
	}
	if !o.op("durable phase", err) {
		return err
	}
	c.recoveries(ctx, dir, last)
	return nil
}

// recoveries reopens the directory a daemon life that closed day last
// wrote, Recoveries times, checking what each recovery reports. The
// durable workload and traced cycles then walk the audit trail offline.
func (c *cycle) recoveries(ctx context.Context, dir string, last int) {
	sp, o := c.sp, c.out
	if c.tr != nil {
		o.layer.measureDir(dir)
		for d := sp.FirstDay; d <= last; d++ {
			o.layer.durableEv += float64(c.in.days[d].n)
		}
	}
	for k := 0; k < sp.Recoveries; k++ {
		t := time.Now()
		id := c.tr.begin("serve.recover", c.root, int64(k))
		srv, info, err := daemon.Start(daemonConfig(sp, c.in, c.seed), c.options(dir)...)
		c.tr.end(id)
		took := time.Since(t).Seconds()
		if err == nil {
			want := 0
			for d := int(info.SnapshotDay) + 1; d <= last; d++ {
				want += c.in.days[d].n
			}
			if !info.SnapshotLoaded || int(info.ClosedThrough) != last ||
				int(info.SnapshotDay) < last-sp.SnapshotEvery || info.ReplayedEvents != want {
				err = fmt.Errorf("recovery %d: snapshot loaded %v (day %d), closed through %d, replayed %d events; want true, ≥%d, %d, %d",
					k, info.SnapshotLoaded, int(info.SnapshotDay), int(info.ClosedThrough), info.ReplayedEvents,
					last-sp.SnapshotEvery, last, want)
			}
			if c.tr != nil {
				o.layer.replayedEvents += float64(info.ReplayedEvents)
			}
			sctx, cancel := context.WithTimeout(ctx, 30*time.Second)
			if serr := srv.Shutdown(sctx); err == nil {
				err = serr
			}
			cancel()
		}
		if o.op("recover", err) {
			o.recoverS = append(o.recoverS, took)
		}
		c.cal.sample()
	}
	if !sp.Durable && c.tr == nil {
		return
	}
	t := time.Now()
	id := c.tr.begin("serve.verify", c.root, 0)
	pub, err := daemon.LoadAuditPublicKey(filepath.Join(dir, daemon.AuditPubFileName))
	if err == nil {
		_, err = daemon.VerifyAudit(dir, pub)
	}
	c.tr.end(id)
	if o.op("verify audit", err) {
		o.verifyS = append(o.verifyS, time.Since(t).Seconds())
	}
}
