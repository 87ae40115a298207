package serve

import (
	"context"
	"errors"
	"testing"
	"time"

	"acobe/internal/cert"
	"acobe/internal/deviation"
	"acobe/internal/features"
	"acobe/pkg/acobe"
)

// gen is the deterministic measurement function shared by the streaming
// and batch sides of the parity tests.
func gen(u, f, frame int, d cert.Day) float64 {
	h := uint64(u+1)*0x9e3779b97f4a7c15 + uint64(f+1)*0xbf58476d1ce4e5b9 + uint64(frame+1)*0x94d049bb133111eb + uint64(d+1)*0x2545f4914f6cdd1d
	h ^= h >> 33
	h *= 0xff51afd7ed558ccd
	h ^= h >> 33
	v := float64(h%7) + 1
	if u == 5 && d >= 60 { // the last user goes anomalous in the test window
		v += 25
	}
	return v
}

var (
	testUsers  = []string{"u0", "u1", "u2", "u3", "u4", "u5"}
	testFeats  = []string{"fa", "fb"}
	testGroups = []string{"g0", "g1"}
	testMember = []int{0, 0, 0, 1, 1, 1}
)

func testDevCfg() deviation.Config {
	return deviation.Config{Window: 8, MatrixDays: 3, Delta: 3, Epsilon: 1, Weighted: true}
}

func testDetOpts() []acobe.Option {
	return []acobe.Option{
		acobe.WithAspects(acobe.Aspect{Name: "a", Features: testFeats}),
		acobe.WithSeed(11),
		acobe.WithVotes(1),
		acobe.WithTrainStride(2),
		acobe.WithModelConfig(func(dim int) acobe.ModelConfig {
			cfg := acobe.FastModelConfig(dim)
			cfg.Hidden = []int{12, 6}
			cfg.Epochs = 15
			return cfg
		}),
	}
}

// stubIngestor writes gen() measurements for each closed day, ignoring
// events; blockCh (when set) stalls CloseDay until released so tests can
// hold the drain goroutine busy.
type stubIngestor struct {
	tbl     *features.Table
	blockCh chan struct{}
	entered chan struct{} // signaled when CloseDay starts blocking
}

func newStubIngestor(t *testing.T, start cert.Day) *stubIngestor {
	t.Helper()
	tbl, err := features.NewTable(testUsers, testFeats, 2, start, start)
	if err != nil {
		t.Fatal(err)
	}
	return &stubIngestor{tbl: tbl}
}

func (s *stubIngestor) Table() *features.Table { return s.tbl }

func (s *stubIngestor) Apply(events []Event) (int, error) { return 0, nil }

func (s *stubIngestor) CloseDay(d cert.Day) (int, error) {
	if s.blockCh != nil {
		if s.entered != nil {
			s.entered <- struct{}{}
		}
		<-s.blockCh
	}
	for u := range testUsers {
		for f := range testFeats {
			for frame := 0; frame < 2; frame++ {
				s.tbl.Add(u, f, frame, d, gen(u, f, frame, d))
			}
		}
	}
	return 0, nil
}

func newTestServer(t *testing.T, ing Ingestor, queue int) *Server {
	t.Helper()
	s, err := New(Config{
		Users:           testUsers,
		Groups:          testGroups,
		Membership:      testMember,
		Start:           0,
		Deviation:       testDevCfg(),
		IngestorFactory: func([]string, cert.Day) (Ingestor, error) { return ing, nil },
		DetectorOptions: testDetOpts(),
		QueueSize:       queue,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		_ = s.Shutdown(ctx)
	})
	return s
}

// fitBatchDetector is the offline side of the parity tests: the batch
// pipeline over gen()'s measurements for days 0..lastDay — one table up
// front, the facade end to end — fitted on days 0..trainTo.
func fitBatchDetector(t *testing.T, lastDay, trainTo cert.Day) *acobe.Detector {
	t.Helper()
	tbl, err := features.NewTable(testUsers, testFeats, 2, 0, lastDay)
	if err != nil {
		t.Fatal(err)
	}
	for u := range testUsers {
		for f := range testFeats {
			for frame := 0; frame < 2; frame++ {
				for d := cert.Day(0); d <= lastDay; d++ {
					tbl.Add(u, f, frame, d, gen(u, f, frame, d))
				}
			}
		}
	}
	opts := append(testDetOpts(),
		acobe.WithGroups(testGroups, testMember),
		acobe.WithDeviationConfig(testDevCfg()))
	det, err := acobe.NewDetector(tbl, opts...)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := det.Fit(context.Background(), 0, trainTo); err != nil {
		t.Fatal(err)
	}
	return det
}

// TestServeMatchesBatch is the incremental-parity acceptance test: a
// server fed day by day must produce exactly the investigation list (and
// the raw per-day scores) of the offline batch pipeline over the same
// measurements.
func TestServeMatchesBatch(t *testing.T) {
	const lastDay = cert.Day(69)
	ctx := context.Background()

	// Online: close 70 days one at a time, retrain on 0..55, rank 60..69.
	srv := newTestServer(t, newStubIngestor(t, 0), 16)
	for d := cert.Day(0); d <= lastDay; d++ {
		if err := srv.CloseDay(ctx, d); err != nil {
			t.Fatal(err)
		}
	}
	if err := srv.Retrain(ctx, 0, 55, true); err != nil {
		t.Fatal(err)
	}
	gotList, err := srv.Rank(ctx, 60, lastDay)
	if err != nil {
		t.Fatal(err)
	}
	gotSeries, err := srv.Detector().Score(ctx, 60, lastDay)
	if err != nil {
		t.Fatal(err)
	}

	// Batch: same measurements through the offline pipeline.
	det := fitBatchDetector(t, lastDay, 55)
	wantList, err := det.Rank(ctx, 60, lastDay)
	if err != nil {
		t.Fatal(err)
	}
	wantSeries, err := det.Score(ctx, 60, lastDay)
	if err != nil {
		t.Fatal(err)
	}

	if len(gotList) != len(wantList) {
		t.Fatalf("served list has %d rows, batch %d", len(gotList), len(wantList))
	}
	for i := range wantList {
		g, w := gotList[i], wantList[i]
		if g.User != w.User || g.Priority != w.Priority {
			t.Errorf("list[%d]: served %s/%d, batch %s/%d", i, g.User, g.Priority, w.User, w.Priority)
		}
		for a := range w.Ranks {
			if g.Ranks[a] != w.Ranks[a] {
				t.Errorf("list[%d] ranks differ: %v vs %v", i, g.Ranks, w.Ranks)
			}
		}
	}
	for a := range wantSeries {
		g, w := gotSeries[a], wantSeries[a]
		if g.From != w.From || g.To != w.To {
			t.Fatalf("aspect %d span: served %v..%v, batch %v..%v", a, g.From, g.To, w.From, w.To)
		}
		for u := range w.Scores {
			for i := range w.Scores[u] {
				if g.Scores[u][i] != w.Scores[u][i] {
					t.Fatalf("aspect %d user %d day %d: served score %v != batch %v (must be bit-identical)",
						a, u, i, g.Scores[u][i], w.Scores[u][i])
				}
			}
		}
	}
}

// TestServeIncrementalRetrainAndGrowth: the served window keeps extending
// after a retrain — new closed days are scoreable without retraining, and
// a second retrain over a longer window still works.
func TestServeIncrementalGrowth(t *testing.T) {
	ctx := context.Background()
	srv := newTestServer(t, newStubIngestor(t, 0), 16)
	for d := cert.Day(0); d <= 55; d++ {
		if err := srv.CloseDay(ctx, d); err != nil {
			t.Fatal(err)
		}
	}
	if err := srv.Retrain(ctx, 0, 50, true); err != nil {
		t.Fatal(err)
	}
	if _, err := srv.Rank(ctx, 50, 55); err != nil {
		t.Fatal(err)
	}
	// Close ten more days; the existing model must score them immediately.
	for d := cert.Day(56); d <= 65; d++ {
		if err := srv.CloseDay(ctx, d); err != nil {
			t.Fatal(err)
		}
	}
	list, err := srv.Rank(ctx, 60, 65)
	if err != nil {
		t.Fatal(err)
	}
	if list[0].User != "u5" {
		t.Errorf("top after growth = %s, want u5", list[0].User)
	}
	if err := srv.Retrain(ctx, 0, 60, true); err != nil {
		t.Fatal(err)
	}
}

// TestBackpressure: a full bounded queue must block Submit (honoring the
// context) instead of buffering without limit.
func TestBackpressure(t *testing.T) {
	ing := newStubIngestor(t, 0)
	ing.blockCh = make(chan struct{})
	ing.entered = make(chan struct{}, 1)
	srv := newTestServer(t, ing, 2)
	ctx := context.Background()

	// Stall the drain goroutine inside a day-close and wait until it is
	// actually blocked there before filling the queue.
	closeErr := make(chan error, 1)
	go func() { closeErr <- srv.CloseDay(ctx, 0) }()
	select {
	case <-ing.entered:
	case <-time.After(5 * time.Second):
		t.Fatal("drain goroutine never entered the stalled day-close")
	}

	// Fill the queue to capacity while drain is stuck.
	ev := func(d cert.Day) []Event {
		return []Event{{Cert: &cert.Event{Type: cert.EventLogon, Time: cert.Day(d).Date(), User: "u0"}}}
	}
	deadline := time.Now().Add(5 * time.Second)
	filled := 0
	for filled < 2 {
		sctx, cancel := context.WithTimeout(ctx, 50*time.Millisecond)
		err := srv.Submit(sctx, ev(1))
		cancel()
		if err == nil {
			filled++
			continue
		}
		if time.Now().After(deadline) {
			t.Fatal("could not fill queue while drain was stalled")
		}
	}

	// The queue is full: the next submit must block and then fail with the
	// context error, not grow the queue.
	sctx, cancel := context.WithTimeout(ctx, 100*time.Millisecond)
	defer cancel()
	start := time.Now()
	err := srv.Submit(sctx, ev(2))
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("submit on full queue: %v, want deadline exceeded", err)
	}
	if elapsed := time.Since(start); elapsed < 80*time.Millisecond {
		t.Fatalf("submit returned after %v without blocking for the context", elapsed)
	}
	if depth := len(srv.shards[0].queue); depth > 2 {
		t.Fatalf("queue grew past its bound: %d", depth)
	}

	close(ing.blockCh) // release drain; cleanup shuts down
	if err := <-closeErr; err != nil {
		t.Fatal(err)
	}
}

// TestShutdownDrains: batches and day-closes already queued when Shutdown
// begins are processed to completion before Shutdown returns.
func TestShutdownDrains(t *testing.T) {
	ing := newStubIngestor(t, 0)
	ing.blockCh = make(chan struct{}, 1024)
	srv := newTestServer(t, ing, 64)
	ctx := context.Background()

	done := make(chan error, 1)
	go func() { done <- srv.CloseDay(ctx, 9) }() // 10 days of work queued

	// Give the close op time to enter the drain loop, then shut down while
	// it is still blocked mid-day.
	time.Sleep(50 * time.Millisecond)
	for i := 0; i < 1024; i++ {
		ing.blockCh <- struct{}{}
	}
	sctx, cancel := context.WithTimeout(ctx, 10*time.Second)
	defer cancel()
	if err := srv.Shutdown(sctx); err != nil {
		t.Fatal(err)
	}
	if err := <-done; err != nil {
		t.Fatal(err)
	}
	if got := srv.ClosedThrough(); got != 9 {
		t.Fatalf("closed through %v after drain, want 9", got)
	}
	// After shutdown, new work is refused.
	if err := srv.CloseDay(ctx, 10); !errors.Is(err, ErrShuttingDown) {
		t.Fatalf("CloseDay after shutdown: %v, want ErrShuttingDown", err)
	}
}

// TestShutdownCancelsRetrain: a shutdown mid-retrain must cancel training
// and return within the acceptance bound (2s) while the previously
// trained detector keeps answering queries up to the end.
func TestShutdownCancelsRetrain(t *testing.T) {
	ing := newStubIngestor(t, 0)
	srv, err := New(Config{
		Users:           testUsers,
		Groups:          testGroups,
		Membership:      testMember,
		Start:           0,
		Deviation:       testDevCfg(),
		IngestorFactory: func([]string, cert.Day) (Ingestor, error) { return ing, nil },
		DetectorOptions: []acobe.Option{
			acobe.WithAspects(acobe.Aspect{Name: "a", Features: testFeats}),
			acobe.WithSeed(11),
			acobe.WithModelConfig(func(dim int) acobe.ModelConfig {
				cfg := acobe.FastModelConfig(dim)
				cfg.Hidden = []int{32, 16}
				cfg.Epochs = 1_000_000 // never finishes: shutdown must cut it
				cfg.EarlyStopDelta = 0
				return cfg
			}),
		},
		QueueSize: 16,
	})
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	for d := cert.Day(0); d <= 40; d++ {
		if err := srv.CloseDay(ctx, d); err != nil {
			t.Fatal(err)
		}
	}
	// First model: train quickly by temporarily overriding nothing — use a
	// detector trained out of band and swapped in through the same path.
	p := srv.pub.Load()
	quick, err := acobe.NewDetectorFromFields(p.ind, p.grp, testMember,
		append(testDetOpts(), acobe.WithGroupDeviations(true))...)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := quick.Fit(ctx, 0, 35); err != nil {
		t.Fatal(err)
	}
	if err := srv.swapIn(quick); err != nil {
		t.Fatal(err)
	}

	// Kick off the never-ending retrain in the background.
	if err := srv.Retrain(ctx, 0, 35, false); err != nil {
		t.Fatal(err)
	}
	time.Sleep(200 * time.Millisecond)
	if !srv.Status().Retraining {
		t.Fatal("background retrain not running")
	}
	// Old detector still answers mid-retrain.
	if _, err := srv.Rank(ctx, 35, 40); err != nil {
		t.Fatalf("rank during retrain: %v", err)
	}

	start := time.Now()
	sctx, cancel := context.WithTimeout(ctx, 2*time.Second)
	defer cancel()
	if err := srv.Shutdown(sctx); err != nil {
		t.Fatalf("shutdown mid-retrain: %v", err)
	}
	if elapsed := time.Since(start); elapsed > 2*time.Second {
		t.Fatalf("shutdown took %v, want under 2s", elapsed)
	}
	// The canceled retrain must not have replaced the serving model.
	if _, err := srv.Rank(ctx, 35, 40); err != nil {
		t.Fatalf("rank after shutdown: %v", err)
	}
	if st := srv.Status(); st.LastTrainError == "" {
		t.Error("canceled retrain left no error in status")
	}
}

// TestRetrainMutualExclusion: only one retrain may run at a time.
func TestRetrainMutualExclusion(t *testing.T) {
	ing := newStubIngestor(t, 0)
	ing.blockCh = nil
	srv := newTestServer(t, ing, 16)
	ctx := context.Background()
	for d := cert.Day(0); d <= 40; d++ {
		if err := srv.CloseDay(ctx, d); err != nil {
			t.Fatal(err)
		}
	}
	srv.retraining.Store(true) // simulate an in-flight retrain
	if err := srv.Retrain(ctx, 0, 35, true); !errors.Is(err, ErrRetrainInProgress) {
		t.Fatalf("concurrent retrain: %v, want ErrRetrainInProgress", err)
	}
	srv.retraining.Store(false)
}

// TestRankBeforeTraining returns the typed sentinel.
func TestRankBeforeTraining(t *testing.T) {
	srv := newTestServer(t, newStubIngestor(t, 0), 16)
	if _, err := srv.Rank(context.Background(), 0, 10); !errors.Is(err, ErrNoModel) {
		t.Fatalf("rank without model: %v, want ErrNoModel", err)
	}
}
