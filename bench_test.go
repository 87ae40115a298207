// Package acobe's benchmark harness regenerates every figure of the
// paper's evaluation (the paper reports no numbered tables; Figures 4-7
// carry all results). Each BenchmarkFigN* target rebuilds its figure from
// a freshly trained model at a reduced "bench" scale so that
// `go test -bench=. -benchmem` terminates in minutes; `cmd/repro -preset
// fast` regenerates the same figures at the scale EXPERIMENTS.md reports.
//
// Micro-benchmarks at the bottom cover the substrates (neural network,
// deviation field, synthesizers, log pipeline, DGA).
package acobe

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"testing"
	"time"

	"acobe/internal/autoencoder"
	"acobe/internal/cert"
	"acobe/internal/core"
	"acobe/internal/deviation"
	"acobe/internal/dga"
	"acobe/internal/experiment"
	"acobe/internal/features"
	"acobe/internal/logstore"
	"acobe/internal/mathx"
	"acobe/internal/metrics"
	"acobe/internal/nn"
	"acobe/internal/serve"
	pubacobe "acobe/pkg/acobe"
)

// benchPreset is the reduced scale used by the figure benchmarks.
func benchPreset() experiment.Preset {
	p := experiment.TinyPreset()
	p.Name = "bench"
	p.UsersPerDept = 8
	p.AEConfig = func(dim int) autoencoder.Config {
		cfg := autoencoder.FastConfig(dim)
		cfg.Hidden = []int{48, 24}
		cfg.Epochs = 15
		cfg.EarlyStopDelta = 0.002
		cfg.Patience = 3
		return cfg
	}
	p.TrainStride = 4
	return p
}

var (
	benchDataOnce sync.Once
	benchDataVal  *experiment.CERTData
	benchDataErr  error
)

// benchData synthesizes the shared CERT dataset once per process.
func benchData(b *testing.B) *experiment.CERTData {
	b.Helper()
	benchDataOnce.Do(func() {
		benchDataVal, benchDataErr = experiment.BuildCERTData(benchPreset())
	})
	if benchDataErr != nil {
		b.Fatalf("build bench dataset: %v", benchDataErr)
	}
	return benchDataVal
}

// BenchmarkFig4DeviationMatrix regenerates Figure 4: the insider's
// compound behavioral deviation heatmaps (device + HTTP aspects × two
// time-frames).
func BenchmarkFig4DeviationMatrix(b *testing.B) {
	data := benchData(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		heatmaps, err := experiment.BuildFig4(data)
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			for _, h := range heatmaps {
				peak := 0.0
				for _, row := range h.Values {
					if m := mathx.Max(row); m > peak {
						peak = m
					}
				}
				b.Logf("%s: %d features × %d days, peak σ=%.2f", h.Title, len(h.Rows), len(h.Cols), peak)
			}
		}
	}
}

// benchFig5 trains one model variant on the r6.1-s2 split and regenerates
// its Figure 5 score-trend waveform.
func benchFig5(b *testing.B, kind experiment.ModelKind) {
	data := benchData(b)
	sc := data.ScenarioByName("r6.1-s2")
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		run, err := experiment.RunScenario(data, kind, sc)
		if err != nil {
			b.Fatal(err)
		}
		w, err := experiment.BuildFig5Waveform(data, run, experiment.Fig5AspectFor(kind))
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			pos := insiderPosition(run)
			b.Logf("Fig5 %v (%s aspect): score mean=%.5f std=%.5f; insider list position %d/%d",
				kind, w.Aspect, w.Mean, w.Std, pos, len(run.Items))
		}
	}
}

func insiderPosition(run *experiment.ScenarioRun) int {
	for i, it := range metrics.OrderWorstCase(run.Items) {
		if it.Positive {
			return i + 1
		}
	}
	return -1
}

// BenchmarkFig5ACOBE regenerates Figure 5(a)/(b): ACOBE's waveforms.
func BenchmarkFig5ACOBE(b *testing.B) { benchFig5(b, experiment.ModelACOBE) }

// BenchmarkFig5OneDay regenerates Figure 5(c): single-day reconstruction.
func BenchmarkFig5OneDay(b *testing.B) { benchFig5(b, experiment.ModelOneDay) }

// BenchmarkFig5NoGroup regenerates Figure 5(d): no group deviations.
func BenchmarkFig5NoGroup(b *testing.B) { benchFig5(b, experiment.ModelNoGroup) }

// BenchmarkFig5AllInOne regenerates Figure 5(e): one autoencoder for all
// features.
func BenchmarkFig5AllInOne(b *testing.B) { benchFig5(b, experiment.ModelAllInOne) }

// BenchmarkFig5Baseline regenerates Figure 5(f): the Liu et al. baseline.
func BenchmarkFig5Baseline(b *testing.B) { benchFig5(b, experiment.ModelBaseline) }

var (
	fig6Once sync.Once
	fig6Runs map[experiment.ModelKind][]*experiment.ScenarioRun
	fig6Err  error
)

// fig6AllRuns trains every model variant on all four scenarios (the heavy
// part of Figure 6) once per process; the ROC / PR / N-sweep benchmarks
// evaluate different views of the same runs, as the paper's sub-figures
// do.
func fig6AllRuns(b *testing.B) map[experiment.ModelKind][]*experiment.ScenarioRun {
	b.Helper()
	data := benchData(b)
	fig6Once.Do(func() {
		fig6Runs = make(map[experiment.ModelKind][]*experiment.ScenarioRun)
		for _, kind := range experiment.AllModelKinds() {
			for _, sc := range data.Scenarios {
				run, err := experiment.RunScenario(data, kind, sc)
				if err != nil {
					fig6Err = fmt.Errorf("%v on %s: %w", kind, sc.Name(), err)
					return
				}
				fig6Runs[kind] = append(fig6Runs[kind], run)
			}
		}
	})
	if fig6Err != nil {
		b.Fatal(fig6Err)
	}
	return fig6Runs
}

// BenchmarkFig6ROC regenerates Figure 6(a): pooled ROC curves and AUC for
// all six model variants. The first iteration includes model training.
func BenchmarkFig6ROC(b *testing.B) {
	for i := 0; i < b.N; i++ {
		runs := fig6AllRuns(b)
		res, err := experiment.BuildFig6(runs)
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			b.Logf("Fig6(a):\n%s", res.Summary.String())
		}
	}
}

// BenchmarkFig6PR regenerates Figure 6(b): the pooled precision-recall
// curves over the same runs.
func BenchmarkFig6PR(b *testing.B) {
	runs := fig6AllRuns(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err := experiment.BuildFig6(runs)
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			for name, c := range res.Curves {
				b.Logf("Fig6(b) %s: AP=%.4f", name, c.AP)
			}
		}
	}
}

// BenchmarkFig6NSweep regenerates Figure 6(c): ACOBE re-ranked with
// critic N = 1, 2, 3 (no retraining — only the critic changes).
func BenchmarkFig6NSweep(b *testing.B) {
	runs := fig6AllRuns(b)
	data := benchData(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		runsByN := make(map[int][]*experiment.ScenarioRun)
		for n := 1; n <= 3; n++ {
			rr, err := experiment.ReRankRuns(data, runs[experiment.ModelACOBE], n)
			if err != nil {
				b.Fatal(err)
			}
			runsByN[n] = rr
		}
		res, err := experiment.BuildFig6N(runsByN)
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			b.Logf("Fig6(c):\n%s", res.Summary.String())
		}
	}
}

// benchFig7 runs one enterprise case study end to end (simulation, log
// pipeline, training, scoring, daily ranking).
func benchFig7(b *testing.B, kind experiment.AttackKind) {
	p := experiment.EnterpriseTinyPreset()
	for i := 0; i < b.N; i++ {
		run, err := experiment.RunEnterprise(p, kind)
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			attackIdx := int(run.AttackDay - run.ScoreFrom)
			held := 0
			for _, r := range run.VictimDailyRank[attackIdx:] {
				if r != 1 {
					break
				}
				held++
			}
			b.Logf("Fig7 %s: victim=%s, rank-1 streak after attack = %d days, ranks=%v",
				kind, run.Victim, held, run.VictimDailyRank[attackIdx:])
		}
	}
}

// BenchmarkFig7Ransomware regenerates Figure 7(a).
func BenchmarkFig7Ransomware(b *testing.B) { benchFig7(b, experiment.AttackRansomware) }

// BenchmarkFig7Zeus regenerates Figure 7(b).
func BenchmarkFig7Zeus(b *testing.B) { benchFig7(b, experiment.AttackZeus) }

// ---------------------------------------------------------------------
// Substrate micro-benchmarks.
// ---------------------------------------------------------------------

// BenchmarkNNMatMul measures the dense matrix multiply at an
// autoencoder-typical shape (batch 64 × 392 by 392 × 128) into a
// preallocated destination, so it times the kernel and no allocation.
func BenchmarkNNMatMul(b *testing.B) {
	rng := mathx.NewRNG(1)
	a := nn.NewMatrix(64, 392)
	w := nn.NewMatrix(392, 128)
	for i := range a.Data {
		a.Data[i] = rng.Float64()
	}
	for i := range w.Data {
		w.Data[i] = rng.Float64()
	}
	dst := nn.NewMatrix(64, 128)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = nn.MatMulInto(dst, a, w)
	}
}

// benchRandMat returns a rows×cols matrix of uniform values.
func benchRandMat(rows, cols int, seed uint64) *nn.Matrix {
	rng := mathx.NewRNG(seed)
	m := nn.NewMatrix(rows, cols)
	for i := range m.Data {
		m.Data[i] = rng.Float64()
	}
	return m
}

// BenchmarkMatMulATB measures the transpose-product kernel (the dW =
// xᵀ·grad shape of a Dense backward pass) through the reusable-buffer
// path.
func BenchmarkMatMulATB(b *testing.B) {
	x := benchRandMat(64, 392, 1)
	g := benchRandMat(64, 128, 2)
	dst := nn.NewMatrix(392, 128)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = nn.MatMulATBInto(dst, x, g)
	}
}

// BenchmarkMatMulABT measures the product-with-transpose kernel (the dx =
// grad·Wᵀ shape of a Dense backward pass) through the reusable-buffer
// path.
func BenchmarkMatMulABT(b *testing.B) {
	g := benchRandMat(64, 128, 1)
	w := benchRandMat(392, 128, 2)
	dst := nn.NewMatrix(64, 392)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = nn.MatMulABTInto(dst, g, w)
	}
}

// BenchmarkTrainStep measures one 64-sample batch through the workspace
// trainer (forward, MSE, backward, Adadelta step) on a 392-128-392
// autoencoder-shaped network. The headline number is allocs/op: after the
// first warm-up step, a training step at a worker budget of 1 (-cpu 1)
// performs zero heap allocations. On more cores the sharded products
// spawn goroutines, and allocs/op counts those spawns.
func BenchmarkTrainStep(b *testing.B) {
	rng := mathx.NewRNG(9)
	net := nn.NewNetwork(
		nn.NewDense(392, 128, rng),
		nn.NewBatchNorm(128),
		nn.NewActivation(nn.ActReLU),
		nn.NewDense(128, 392, rng),
		nn.NewActivation(nn.ActSigmoid),
	)
	ws := net.NewWorkspace()
	bx := benchRandMat(64, 392, 3)
	opt := nn.NewAdadelta()
	net.TrainStep(ws, bx, bx, opt) // warm buffers and Adadelta accumulators
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = net.TrainStep(ws, bx, bx, opt)
	}
}

// BenchmarkAutoencoderEpoch measures one training epoch of the fast
// architecture on 1024 samples of width 392.
func BenchmarkAutoencoderEpoch(b *testing.B) {
	rng := mathx.NewRNG(2)
	rows := make([][]float64, 1024)
	for i := range rows {
		rows[i] = make([]float64, 392)
		for j := range rows[i] {
			rows[i][j] = rng.Float64()
		}
	}
	samples := nn.FromRows(rows)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		cfg := autoencoder.FastConfig(392)
		cfg.Epochs = 1
		ae, err := autoencoder.New(cfg)
		if err != nil {
			b.Fatal(err)
		}
		if _, err := ae.Fit(context.Background(), samples); err != nil {
			b.Fatal(err)
		}
	}
}

// refereeLastDay is the last generated day of refereeShape's dataset.
const refereeLastDay = 26

// refereeShape builds the referee's detector inputs: the CERT generator at
// seed 1 with 500 users over days 0–26, the referee's deviation settings
// (ω 7, 𝒟 5, Δ 3, ε 1, weighted), and the three ACOBE aspects (input
// widths 140/140/40) with group deviations, hidden {64, 32}, 2 epochs and
// stride 1.
func refereeShape(b *testing.B) (cfg core.Config, ind, group *deviation.Field, userGroup []int) {
	b.Helper()
	const users = 500
	gcfg := cert.Config{
		Seed:         1,
		Departments:  append([]string(nil), cert.DefaultDepartments...),
		UsersPerDept: (users + len(cert.DefaultDepartments) - 1) / len(cert.DefaultDepartments),
		Start:        0,
		End:          refereeLastDay + 1,
	}
	data, err := experiment.BuildCERTDataFrom(experiment.TinyPreset(), gcfg)
	if err != nil {
		b.Fatal(err)
	}
	cfg = core.Config{
		Deviation:    deviation.Config{Window: 7, MatrixDays: 5, Delta: 3, Epsilon: 1, Weighted: true},
		Aspects:      features.ACOBEAspects(),
		IncludeGroup: true,
		AEConfig: func(dim int) autoencoder.Config {
			c := autoencoder.FastConfig(dim)
			c.Hidden, c.Epochs = []int{64, 32}, 2
			return c
		},
		TrainStride: 1,
		N:           2,
		Seed:        1,
	}
	ind, group, err = data.Fields(cfg.Deviation)
	if err != nil {
		b.Fatal(err)
	}
	return cfg, ind, group, data.UserGroup
}

// BenchmarkDetectorFit measures one Detector.Fit at the referee's retrain
// shape (refereeShape, days 19–26, at the default worker budget), so the
// fit layer of `retrain_s` can be timed without the referee. Each
// iteration fits a freshly built detector; building it is untimed.
func BenchmarkDetectorFit(b *testing.B) {
	cfg, ind, group, userGroup := refereeShape(b)
	ctx := context.Background()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		det, err := core.NewDetector(cfg, ind, group, userGroup)
		if err != nil {
			b.Fatal(err)
		}
		b.StartTimer()
		if _, err := det.Fit(ctx, refereeLastDay-7, refereeLastDay); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkColdFill measures what a served rank's score memo runs for
// days it has not scored — ScoreBatch over them, then DayBlocks — at the
// referee's shape (refereeShape, fitted once on days 19–26) and the
// default worker budget: one newly closed day (a cold rank after a day
// close), and a 7-day window (a rank after a retrain).
func BenchmarkColdFill(b *testing.B) {
	cfg, ind, group, userGroup := refereeShape(b)
	det, err := core.NewDetector(cfg, ind, group, userGroup)
	if err != nil {
		b.Fatal(err)
	}
	ctx := context.Background()
	if _, err := det.Fit(ctx, refereeLastDay-7, refereeLastDay); err != nil {
		b.Fatal(err)
	}
	for _, days := range []cert.Day{1, 7} {
		b.Run(fmt.Sprintf("days=%d", days), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				series, err := det.ScoreBatch(ctx, refereeLastDay-days+1, refereeLastDay)
				if err != nil {
					b.Fatal(err)
				}
				blockSink = core.DayBlocks(series)
			}
		})
	}
}

// blockSink keeps the compiler from eliding the cold fill.
var blockSink []core.DayBlock

// BenchmarkDeviationField measures the sliding-window deviation
// computation over a 40-user × 27-feature × 2-frame × 515-day table.
func BenchmarkDeviationField(b *testing.B) {
	data := benchData(b)
	cfg := deviation.DefaultConfig()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := deviation.ComputeField(data.Table, cfg); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkStreamAdvance measures the online window advance: a
// StreamField built over a filled table and advanced over every day of it
// (NewStreamField + Advance), at the referee's shape — ω 7, 16 features, 2
// frames, 27 days — for 500 and 5,000 users. ns/user-day divides the
// time by users × table days.
func BenchmarkStreamAdvance(b *testing.B) {
	const days, frames = 27, 2
	cfg := deviation.Config{Window: 7, MatrixDays: 5, Delta: 3, Epsilon: 1, Weighted: true}
	feats := make([]string, 16)
	for f := range feats {
		feats[f] = fmt.Sprintf("f%02d", f)
	}
	for _, n := range []int{500, 5000} {
		b.Run(fmt.Sprintf("users=%d", n), func(b *testing.B) {
			users := make([]string, n)
			for u := range users {
				users[u] = fmt.Sprintf("u%05d", u)
			}
			tbl, err := features.NewTable(users, feats, frames, 0, days-1)
			if err != nil {
				b.Fatal(err)
			}
			rng := mathx.NewRNG(3)
			for u := range users {
				for f := range feats {
					for frame := 0; frame < frames; frame++ {
						for d := cert.Day(0); d < days; d++ {
							tbl.Add(u, f, frame, d, float64(rng.Intn(12)))
						}
					}
				}
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				sf, err := deviation.NewStreamField(tbl, cfg)
				if err != nil {
					b.Fatal(err)
				}
				if err := sf.Advance(); err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*n*days), "ns/user-day")
		})
	}
}

// BenchmarkCERTGeneratorDay measures synthesizing one day of events for
// the bench organization (streamed; b.N caps the number of days).
func BenchmarkCERTGeneratorDay(b *testing.B) {
	cfg := cert.SmallConfig(8)
	gen, err := cert.New(cfg)
	if err != nil {
		b.Fatal(err)
	}
	days := 0
	b.ResetTimer()
	err = gen.Stream(func(_ cert.Day, events []cert.Event) error {
		days++
		if days >= b.N {
			return errStop
		}
		return nil
	})
	if err != nil && !errors.Is(err, errStop) {
		b.Fatal(err)
	}
}

var errStop = errors.New("bench: enough days")

// BenchmarkLogstoreIngest measures the concurrent log pipeline at the
// enterprise record shape.
func BenchmarkLogstoreIngest(b *testing.B) {
	rec := logstore.Record{
		Time: time.Date(2011, 2, 2, 10, 0, 0, 0, time.UTC), User: "emp001",
		Host: "WS-001", Channel: logstore.ChannelSysmon, EventID: 11,
		Action: "FileWrite", Object: `C:\f.docx`, Status: "success",
	}
	b.ReportAllocs()
	b.ResetTimer()
	store := logstore.NewStore()
	pipe := logstore.NewPipeline(store, 4, 256)
	for i := 0; i < b.N; i++ {
		if err := pipe.Submit(rec); err != nil {
			b.Fatal(err)
		}
	}
	pipe.Close()
	if got := store.Ingested(); got != int64(b.N) {
		b.Fatalf("ingested %d, want %d", got, b.N)
	}
}

// BenchmarkDGA measures daily domain-list generation.
func BenchmarkDGA(b *testing.B) {
	g := dga.New(0x60df)
	date := time.Date(2011, 2, 2, 0, 0, 0, 0, time.UTC)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = g.DomainsForDate(date, 100)
	}
}

// BenchmarkCritic measures Algorithm 1 over three aspects at the referee's
// population (500 users), at paper scale (929) and at the ROADMAP's target
// population (100k) — the part of a warm served rank that is left once no
// user-day is scored twice.
func BenchmarkCritic(b *testing.B) {
	for _, n := range []int{500, 929, 100_000} {
		b.Run(fmt.Sprintf("users=%d", n), func(b *testing.B) {
			rng := mathx.NewRNG(3)
			users := make([]string, n)
			scores := make([][]float64, 3)
			for a := range scores {
				scores[a] = make([]float64, len(users))
			}
			for i := range users {
				users[i] = fmt.Sprintf("u%06d", i)
				for a := range scores {
					scores[a][i] = rng.Float64()
				}
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				criticSink = core.Critic(users, scores, 3)
			}
		})
	}
}

// criticSink keeps the compiler from eliding the critic call.
var criticSink []core.Ranked

// BenchmarkWarmRank measures what a warm served rank computes once every
// day of its window is in the score memo: the relative-max aggregate read
// from the memoised day blocks (one division per user-day against each
// column's stored median) and the critic, over three aspects and a 7-day
// window, at the referee's population (500 users) and the ROADMAP's
// target (100k).
func BenchmarkWarmRank(b *testing.B) {
	const aspects, days = 3, 7
	for _, n := range []int{500, 100_000} {
		b.Run(fmt.Sprintf("users=%d", n), func(b *testing.B) {
			rng := mathx.NewRNG(3)
			users := make([]string, n)
			for i := range users {
				users[i] = fmt.Sprintf("u%06d", i)
			}
			series := make([]*core.ScoreSeries, aspects)
			for a := range series {
				s := &core.ScoreSeries{From: 20, To: 20 + days - 1, Scores: make([][]float64, n)}
				for u := range s.Scores {
					s.Scores[u] = make([]float64, days)
					for d := range s.Scores[u] {
						s.Scores[u][d] = rng.Float64()
					}
				}
				series[a] = s
			}
			blocks := core.DayBlocks(series)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				criticSink = core.RankDayBlocks(users, blocks, 3)
			}
		})
	}
}

// ---------------------------------------------------------------------
// Ablation benchmarks: the design choices DESIGN.md calls out.
// ---------------------------------------------------------------------

// BenchmarkAblationWindow sweeps the history window ω on the r6.1-s2
// scenario (paper: ω=30).
func BenchmarkAblationWindow(b *testing.B) {
	data := benchData(b)
	sc := data.ScenarioByName("r6.1-s2")
	for i := 0; i < b.N; i++ {
		results, err := experiment.SweepWindow(data, sc, []int{14, 30})
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			for _, r := range results {
				b.Logf("window %s: AUC=%.4f insider-pos=%d", r.Name, r.AUC, r.Insider)
			}
		}
	}
}

// BenchmarkAblationWeighting compares the TF-style feature weights
// against unweighted deviations.
func BenchmarkAblationWeighting(b *testing.B) {
	data := benchData(b)
	sc := data.ScenarioByName("r6.1-s2")
	for i := 0; i < b.N; i++ {
		results, err := experiment.SweepWeighting(data, sc)
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			for _, r := range results {
				b.Logf("%s: AUC=%.4f insider-pos=%d", r.Name, r.AUC, r.Insider)
			}
		}
	}
}

// BenchmarkAblationAggregation compares window-pooling aggregators on an
// already-trained ACOBE run (no retraining).
func BenchmarkAblationAggregation(b *testing.B) {
	runs := fig6AllRuns(b)
	data := benchData(b)
	run := runs[experiment.ModelACOBE][1] // r6.1-s2
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		results, err := experiment.SweepAggregation(data, run)
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			for _, r := range results {
				b.Logf("%s: AUC=%.4f insider-pos=%d", r.Name, r.AUC, r.Insider)
			}
		}
	}
}

// BenchmarkAdvancedCritic measures the §VII-B waveform critic over an
// ACOBE run's score series.
func BenchmarkAdvancedCritic(b *testing.B) {
	runs := fig6AllRuns(b)
	run := runs[experiment.ModelACOBE][1]
	data := benchData(b)
	cfg := core.DefaultWaveformConfig()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		list := core.AdvancedCritic(data.UserIDs, run.Series, 3, cfg)
		if i == 0 {
			top := list[0]
			b.Logf("advanced critic top: %s (suspicion %d/%d, classes %v)",
				top.User, top.Suspicion, len(run.Series), top.Classes)
		}
	}
}

// ---------------------------------------------------------------------
// Scoring hot path: batched window scoring and the served rank, at the
// bench-scale CERT organization. `make bench` runs both; the referee
// reports the same layers as core.score_batch_ms and
// serve.rank.{cold,warm}_ms.
// ---------------------------------------------------------------------

var (
	scoreBenchOnce sync.Once
	scoreBenchDet  *core.Detector
	scoreBenchFrom cert.Day
	scoreBenchTo   cert.Day
	scoreBenchErr  error
)

// scoreBenchDetector trains one ensemble on the bench-scale CERT
// organization's r6.1-s1 split, once per process.
func scoreBenchDetector(b *testing.B) (*core.Detector, cert.Day, cert.Day) {
	b.Helper()
	scoreBenchOnce.Do(func() {
		p := experiment.TinyPreset()
		p.Name = "bench"
		p.UsersPerDept = 8
		p.TrainStride = 4
		data, err := experiment.BuildCERTData(p)
		if err != nil {
			scoreBenchErr = err
			return
		}
		sc := data.ScenarioByName("r6.1-s1")
		if sc == nil {
			scoreBenchErr = errors.New("bench: scenario r6.1-s1 not found")
			return
		}
		dsStart, dsEnd := data.Span()
		trainFrom, trainTo, testFrom, testTo, err := cert.SplitForScenario(sc, dsStart, dsEnd)
		if err != nil {
			scoreBenchErr = err
			return
		}
		cfg := core.Config{
			Deviation:    p.Deviation,
			Aspects:      features.ACOBEAspects(),
			IncludeGroup: true,
			AEConfig:     p.AEConfig,
			TrainStride:  p.TrainStride,
			N:            p.N,
			Seed:         p.Seed,
		}
		ind, group, err := data.Fields(cfg.Deviation)
		if err != nil {
			scoreBenchErr = err
			return
		}
		det, err := core.NewDetector(cfg, ind, group, data.UserGroup)
		if err != nil {
			scoreBenchErr = err
			return
		}
		if _, err := det.Fit(context.Background(), trainFrom, trainTo); err != nil {
			scoreBenchErr = err
			return
		}
		scoreBenchDet, scoreBenchFrom, scoreBenchTo = det, testFrom, testTo
	})
	if scoreBenchErr != nil {
		b.Fatal(scoreBenchErr)
	}
	return scoreBenchDet, scoreBenchFrom, scoreBenchTo
}

// BenchmarkScoreBatch measures Detector.ScoreBatchInto over the full CERT
// r6.1-s1 testing window — every user × every test day × all three
// aspects flow through the batched ensemble inference path (one
// users×features GEMM chain per chunk instead of a forward pass per
// user-day), recycling the result series like a long-running daemon
// would, so steady state is 0 allocs/op. The nn worker budget is pinned
// to 1 so before/after runs compare single-thread throughput; combine
// with -cpu=1 to also pin the scheduler.
func BenchmarkScoreBatch(b *testing.B) {
	det, from, to := scoreBenchDetector(b)
	defer nn.SetWorkerBudget(nn.WorkerBudget())
	nn.SetWorkerBudget(1)
	ctx := context.Background()
	// One warm-up call allocates the result series and scorer pools; the
	// timed loop then runs in steady state.
	dst, err := det.ScoreBatchInto(ctx, nil, from, to)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if dst, err = det.ScoreBatchInto(ctx, dst, from, to); err != nil {
			b.Fatal(err)
		}
	}
}

var (
	rankBenchOnce sync.Once
	rankBenchSrv  *serve.Server
	rankBenchFrom cert.Day
	rankBenchTo   cert.Day
	rankBenchErr  error
)

// rankBenchServer boots a selftest-scale online daemon, replays its whole
// timeline, retrains once, and keeps it alive for the rest of the bench
// process (mirrors cmd/repro/benchscore.go).
func rankBenchServer(b *testing.B) (*serve.Server, cert.Day, cert.Day) {
	b.Helper()
	rankBenchOnce.Do(func() {
		const endDay = cert.Day(95)
		gcfg := cert.SmallConfig(3)
		gcfg.Seed = 7
		gcfg.Start = 0
		gcfg.End = endDay
		gcfg.EnvChanges = nil
		gcfg.Scenarios = nil
		gen, err := cert.New(gcfg)
		if err != nil {
			rankBenchErr = err
			return
		}
		var (
			users      []string
			membership []int
		)
		deptIndex := make(map[string]int)
		for i, d := range gen.Departments() {
			deptIndex[d] = i
		}
		for _, u := range gen.Users() {
			users = append(users, u.ID)
			membership = append(membership, deptIndex[u.Department])
		}
		srv, err := serve.New(serve.Config{
			Users:      users,
			Groups:     gen.Departments(),
			Membership: membership,
			Start:      0,
			Deviation: deviation.Config{
				Window: 7, MatrixDays: 3,
				Delta: 3, Epsilon: 1, Weighted: true,
			},
			DetectorOptions: []pubacobe.Option{
				pubacobe.WithAspects(pubacobe.ACOBEAspects()...),
				pubacobe.WithSeed(7),
				pubacobe.WithVotes(2),
				pubacobe.WithTrainStride(2),
				pubacobe.WithModelConfig(func(dim int) pubacobe.ModelConfig {
					cfg := pubacobe.FastModelConfig(dim)
					cfg.Hidden = []int{16, 8}
					cfg.Epochs = 30
					return cfg
				}),
			},
		})
		if err != nil {
			rankBenchErr = err
			return
		}
		ctx, cancel := context.WithTimeout(context.Background(), 3*time.Minute)
		defer cancel()
		err = gen.Stream(func(d cert.Day, events []cert.Event) error {
			evs := make([]serve.Event, len(events))
			for i := range events {
				evs[i] = serve.Event{Cert: &events[i]}
			}
			if err := srv.Submit(ctx, evs); err != nil {
				return err
			}
			return srv.CloseDay(ctx, d)
		})
		if err == nil {
			err = srv.Retrain(ctx, 8, 74, true)
		}
		if err != nil {
			_ = srv.Shutdown(ctx)
			rankBenchErr = err
			return
		}
		rankBenchSrv, rankBenchFrom, rankBenchTo = srv, 80, endDay
	})
	if rankBenchErr != nil {
		b.Fatal(rankBenchErr)
	}
	return rankBenchSrv, rankBenchFrom, rankBenchTo
}

// ingestBenchUsers builds the fixed organization for the ingest
// benchmark: 48 users across three peer groups.
func ingestBenchUsers() (users []string, membership []int) {
	for i := 0; i < 48; i++ {
		users = append(users, fmt.Sprintf("ING%04d", i))
		membership = append(membership, i%3)
	}
	return users, membership
}

// ingestBenchDay synthesizes one day of CERT events for every user —
// logons, device sessions, file touches, and HTTP traffic — so a day
// cycle exercises the full extraction surface, not just the queues.
func ingestBenchDay(users []string, d cert.Day) []serve.Event {
	at := func(h int) time.Time { return d.Date().Add(time.Duration(h) * time.Hour) }
	evs := make([]serve.Event, 0, 6*len(users))
	for i, u := range users {
		evs = append(evs,
			serve.Event{Cert: &cert.Event{Type: cert.EventLogon, Time: at(7 + i%4), User: u, Activity: cert.ActLogon}},
			serve.Event{Cert: &cert.Event{Type: cert.EventDevice, Time: at(9), User: u,
				PC: fmt.Sprintf("PC-%d", (int(d)+i)%7), Activity: cert.ActConnect}},
			serve.Event{Cert: &cert.Event{Type: cert.EventFile, Time: at(11), User: u,
				Activity: cert.ActFileOpen, Direction: cert.DirLocal, FileID: fmt.Sprintf("F%d", (int(d)+3*i)%11)}},
			serve.Event{Cert: &cert.Event{Type: cert.EventHTTP, Time: at(13), User: u,
				Activity: cert.ActVisit, Domain: fmt.Sprintf("d%d.com", (int(d)+i)%5)}},
			serve.Event{Cert: &cert.Event{Type: cert.EventDevice, Time: at(16), User: u,
				PC: fmt.Sprintf("PC-%d", (int(d)+i)%7), Activity: cert.ActDisconnect}},
			serve.Event{Cert: &cert.Event{Type: cert.EventLogon, Time: at(18), User: u, Activity: cert.ActLogoff}},
		)
	}
	return evs
}

// benchServeIngest measures the daemon's write path at a given shard
// count: each iteration is one full day cycle — Submit all users' events,
// then CloseDay (extraction, window slide, cross-shard merge). With
// shards > 1 each shard extracts its user subset on its own goroutine, so
// on a multi-core host the events/sec metric shows the scaling the shard
// layer buys; ranked output stays byte-identical at any count.
func benchServeIngest(b *testing.B, shards int) {
	users, membership := ingestBenchUsers()
	srv, err := serve.New(serve.Config{
		Users:      users,
		Groups:     []string{"g0", "g1", "g2"},
		Membership: membership,
		Start:      0,
		Shards:     shards,
		Deviation: deviation.Config{
			Window: 7, MatrixDays: 3,
			Delta: 3, Epsilon: 1, Weighted: true,
		},
	})
	if err != nil {
		b.Fatal(err)
	}
	ctx := context.Background()
	defer func() {
		sctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		_ = srv.Shutdown(sctx)
	}()
	events := 0
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		d := cert.Day(i)
		evs := ingestBenchDay(users, d)
		events += len(evs)
		if err := srv.Submit(ctx, evs); err != nil {
			b.Fatal(err)
		}
		if err := srv.CloseDay(ctx, d); err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	b.ReportMetric(float64(events)/b.Elapsed().Seconds(), "events/sec")
}

// BenchmarkServeIngest compares the sharded and unsharded write path (the
// observer records in both: its hooks are a clock read plus a few atomic
// adds per batch, nothing per event). Compare timings across -count runs:
// a day cycle's cost depends on how many days preceded it, so the
// iteration count the harness picks skews single-run deltas.
func BenchmarkServeIngest(b *testing.B) {
	for _, shards := range []int{1, 4} {
		b.Run(fmt.Sprintf("shards=%d", shards), func(b *testing.B) {
			benchServeIngest(b, shards)
		})
	}
}

// BenchmarkServeRank measures serve.Server.Rank, the online daemon's query
// path, in its two regimes. warm repeats one window: every user-day is
// already in the serving model's score memo, so an iteration is the window
// assembly, the aggregate and the Algorithm 1 critic. cold is the rank
// after a day close: each iteration closes one more (empty) day with the
// timer stopped, then ranks the 16-day window ending there — one day
// through the autoencoders, the other 15 from the memo.
func BenchmarkServeRank(b *testing.B) {
	srv, from, to := rankBenchServer(b)
	defer nn.SetWorkerBudget(nn.WorkerBudget())
	nn.SetWorkerBudget(1)
	ctx := context.Background()
	b.Run("warm", func(b *testing.B) {
		if _, err := srv.Rank(ctx, from, to); err != nil {
			b.Fatal(err)
		}
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, err := srv.Rank(ctx, from, to); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("cold", func(b *testing.B) {
		width := to - from
		if _, err := srv.Rank(ctx, srv.ClosedThrough()-width, srv.ClosedThrough()); err != nil {
			b.Fatal(err)
		}
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			b.StopTimer()
			d := srv.ClosedThrough() + 1
			if err := srv.CloseDay(ctx, d); err != nil {
				b.Fatal(err)
			}
			b.StartTimer()
			if _, err := srv.Rank(ctx, d-width, d); err != nil {
				b.Fatal(err)
			}
		}
	})
}
