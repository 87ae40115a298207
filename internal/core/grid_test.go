package core

import (
	"context"
	"errors"
	"fmt"
	"math"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"

	"acobe/internal/autoencoder"
	"acobe/internal/cert"
	"acobe/internal/deviation"
	"acobe/internal/features"
	"acobe/internal/mathx"
	"acobe/internal/nn"
)

// gridDetector trains a three-aspect detector of unequal input widths
// (20, 60 and 40, listed narrowest first so the grid's widest-first order
// differs from model order) over a population of the given size, on a
// 60-day table whose scoreable days are 13–59.
func gridDetector(t *testing.T, population int) *Detector {
	t.Helper()
	users := make([]string, population)
	for u := range users {
		users[u] = fmt.Sprintf("u%04d", u)
	}
	const lastDay = 59
	tab, err := features.NewTable(users, []string{"fa", "fb", "fc"}, 2, 0, lastDay)
	if err != nil {
		t.Fatal(err)
	}
	rng := mathx.NewRNG(5)
	for u := range users {
		for f := 0; f < 3; f++ {
			for frame := 0; frame < 2; frame++ {
				for d := cert.Day(0); d <= lastDay; d++ {
					tab.Add(u, f, frame, d, 4+float64(int(d)%7)+float64(u%5)+rng.Normal(0, 1))
				}
			}
		}
	}
	membership := make([]int, population)
	for u := range membership {
		membership[u] = u % 2
	}
	gtab, err := tab.GroupTable([]string{"g0", "g1"}, membership)
	if err != nil {
		t.Fatal(err)
	}
	devCfg := deviation.Config{Window: 10, MatrixDays: 5, Delta: 3, Epsilon: 1, Weighted: true}
	ind, err := deviation.ComputeField(tab, devCfg)
	if err != nil {
		t.Fatal(err)
	}
	grp, err := deviation.ComputeField(gtab, devCfg)
	if err != nil {
		t.Fatal(err)
	}
	cfg := Config{
		Deviation: devCfg,
		Aspects: []features.Aspect{
			{Name: "narrow", Features: []string{"fc"}},
			{Name: "wide", Features: []string{"fa", "fb", "fc"}},
			{Name: "mid", Features: []string{"fa", "fb"}},
		},
		IncludeGroup: true,
		AEConfig: func(dim int) autoencoder.Config {
			c := autoencoder.FastConfig(dim)
			c.Hidden, c.Epochs = []int{16, 8}, 1
			return c
		},
		TrainStride: 1,
		N:           2,
		Seed:        3,
	}
	det, err := NewDetector(cfg, ind, grp, membership)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := det.Fit(context.Background(), 14, 17); err != nil {
		t.Fatal(err)
	}
	return det
}

// sameSeries fails t unless got and want hold the same headers and the
// same score bits.
func sameSeries(t *testing.T, label string, got, want []*ScoreSeries) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: %d aspects, want %d", label, len(got), len(want))
	}
	for a := range want {
		g, w := got[a], want[a]
		if g.Aspect != w.Aspect || g.From != w.From || g.To != w.To || len(g.Scores) != len(w.Scores) {
			t.Fatalf("%s aspect %d: header %s %v..%v (%d users), want %s %v..%v (%d users)", label, a,
				g.Aspect, g.From, g.To, len(g.Scores), w.Aspect, w.From, w.To, len(w.Scores))
		}
		for u := range w.Scores {
			for i := range w.Scores[u] {
				if math.Float64bits(g.Scores[u][i]) != math.Float64bits(w.Scores[u][i]) {
					t.Fatalf("%s aspect %s user %d day %d: %x, want %x", label, w.Aspect, u, i,
						math.Float64bits(g.Scores[u][i]), math.Float64bits(w.Scores[u][i]))
				}
			}
		}
	}
}

// requireBudgetFree fails t unless exactly budget worker slots are free.
// It releases any slot a scoring call failed to hand back on the way, so
// a leak fails the test that made it instead of hanging a later Fit.
func requireBudgetFree(t *testing.T, budget int) {
	t.Helper()
	free := 0
	for free <= budget && nn.TryAcquireWorker() {
		free++
	}
	for range max(free, budget) {
		nn.ReleaseWorker()
	}
	if free != budget {
		t.Fatalf("%d worker slots free after scoring, want %d", free, budget)
	}
}

// TestScoreGridMatchesSerial scores a 1-day, a 7-day and the full window
// over 700 users (two chunks a day, the last one short) at worker budgets
// 1, 2 and 4: the (aspect, chunk) grid must reproduce the one-worker
// serial loop bit for bit, whichever worker scores which cell, and hand
// back every worker slot it took.
func TestScoreGridMatchesSerial(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(4))
	defer nn.SetWorkerBudget(nn.WorkerBudget())
	det := gridDetector(t, 700)
	ctx := context.Background()
	for _, span := range []struct{ from, to cert.Day }{{40, 40}, {30, 36}, {0, 1000}} {
		nn.SetWorkerBudget(1)
		want, err := det.ScoreBatch(ctx, span.from, span.to)
		if err != nil {
			t.Fatal(err)
		}
		for _, budget := range []int{2, 4} {
			nn.SetWorkerBudget(budget)
			got, err := det.ScoreBatchInto(ctx, nil, span.from, span.to)
			if err != nil {
				t.Fatal(err)
			}
			sameSeries(t, fmt.Sprintf("window %v..%v budget %d", span.from, span.to, budget), got, want)
			requireBudgetFree(t, budget)
		}
	}
}

// cancelOnPoll is a context that, on its third Err call, has another
// goroutine cancel it and waits until that is done: the scoring call is
// then cancelled from outside while its grid is part-way through.
type cancelOnPoll struct {
	context.Context
	polls    atomic.Int64
	canceled chan struct{}
	cancel   context.CancelFunc
}

func (c *cancelOnPoll) Err() error {
	if c.polls.Add(1) == 3 {
		go func() {
			c.cancel()
			close(c.canceled)
		}()
		<-c.canceled
	}
	return c.Context.Err()
}

// TestScoreGridCancelMidway cancels a full-window score from another
// goroutine while its workers are claiming cells. It must return
// context.Canceled, and once it has returned every slot of the worker
// budget must be free again.
func TestScoreGridCancelMidway(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(4))
	defer nn.SetWorkerBudget(nn.WorkerBudget())
	det := gridDetector(t, 700)
	full, err := det.ScoreBatch(context.Background(), 0, 1000)
	if err != nil {
		t.Fatal(err)
	}
	cells := len(full) * ((len(full[0].flat) + scoreChunkRows - 1) / scoreChunkRows)
	for _, budget := range []int{2, 4} {
		nn.SetWorkerBudget(budget)
		parent, cancel := context.WithCancel(context.Background())
		ctx := &cancelOnPoll{Context: parent, canceled: make(chan struct{}), cancel: cancel}
		if _, err := det.ScoreBatch(ctx, 0, 1000); !errors.Is(err, context.Canceled) {
			t.Fatalf("budget %d: ScoreBatch returned %v, want context.Canceled", budget, err)
		}
		if polls := ctx.polls.Load(); polls >= int64(cells) {
			t.Fatalf("budget %d: %d context polls for %d cells, the whole grid ran", budget, polls, cells)
		}
		requireBudgetFree(t, budget)
	}
}

// TestFirstErrorMixedTypes stores errors of different concrete types from
// concurrent goroutines — the mix an atomic.Value's CompareAndSwap panics
// on — and requires exactly one of them to be kept.
func TestFirstErrorMixedTypes(t *testing.T) {
	errs := []error{
		errors.New("build failed"),
		fmt.Errorf("core: score aspect a: %w", context.Canceled),
		context.DeadlineExceeded,
	}
	for round := 0; round < 200; round++ {
		var first firstError
		start := make(chan struct{})
		var wg sync.WaitGroup
		for _, err := range errs {
			wg.Add(1)
			go func() {
				defer wg.Done()
				<-start
				first.set(err)
			}()
		}
		close(start)
		wg.Wait()
		got := first.get()
		if got != errs[0] && got != errs[1] && got != errs[2] {
			t.Fatalf("round %d: kept %v, want one of %v", round, got, errs)
		}
	}
	var none firstError
	if err := none.get(); err != nil {
		t.Fatalf("empty firstError holds %v", err)
	}
}
