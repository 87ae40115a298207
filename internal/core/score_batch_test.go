package core

import (
	"context"
	"fmt"
	"math"
	"testing"

	"acobe/internal/cert"
	"acobe/internal/nn"
)

// loopedScores replicates the pre-batching scoring path: one matrix per
// user holding that user's days, scored through a single reusable Scorer.
// ScoreBatch must reproduce it bit-for-bit — stacking users into one
// users×days batch only changes which rows share a GEMM, and every row's
// accumulation order is independent of its neighbors.
func loopedScores(t *testing.T, users int, m *aspectModel, from, to cert.Day) [][]float64 {
	t.Helper()
	days := int(to-from) + 1
	out := make([][]float64, users)
	batch := nn.NewMatrix(days, m.rows.Dim())
	scorer := m.ae.NewScorer()
	for u := 0; u < users; u++ {
		for i := 0; i < days; i++ {
			if err := m.rows.BuildInto(u, from+cert.Day(i), batch.Row(i)); err != nil {
				t.Fatal(err)
			}
		}
		scores, err := scorer.ScoreBatch(batch, nil)
		if err != nil {
			t.Fatal(err)
		}
		out[u] = scores
	}
	return out
}

// TestScoreBatchMatchesLoopedScore pins the batched scoring path to the
// per-user loop bit-for-bit over every user, at awkward window lengths:
// a single day (batch rows == users), 7 days, and a 23-day prime span
// (so users×days is never a multiple of the kernels' internal blocking).
func TestScoreBatchMatchesLoopedScore(t *testing.T) {
	ind, grp, ug := synthData(t)
	det, err := NewDetector(detectorConfig(), ind, grp, ug)
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	if _, err := det.Fit(ctx, 0, 90); err != nil {
		t.Fatal(err)
	}
	for _, span := range []struct{ from, to cert.Day }{
		{110, 110}, // 1 day
		{100, 106}, // 7 days
		{95, 117},  // 23 days (prime)
	} {
		series, err := det.ScoreBatch(ctx, span.from, span.to)
		if err != nil {
			t.Fatal(err)
		}
		for ai, m := range det.models {
			want := loopedScores(t, len(det.users), m, span.from, span.to)
			got := series[ai].Scores
			if len(got) != len(want) {
				t.Fatalf("span %v..%v aspect %s: %d users, want %d",
					span.from, span.to, m.aspect.Name, len(got), len(want))
			}
			for u := range want {
				for i := range want[u] {
					if math.Float64bits(got[u][i]) != math.Float64bits(want[u][i]) {
						t.Fatalf("span %v..%v aspect %s user %d day %d: batched %x, looped %x",
							span.from, span.to, m.aspect.Name, u, i,
							math.Float64bits(got[u][i]), math.Float64bits(want[u][i]))
					}
				}
			}
		}
	}
}

// TestScoreBatchIntoReuse checks the recycled-buffer path: feeding a
// previous result back into ScoreBatchInto must reproduce a fresh call
// exactly — including after a window change that shrinks the row count —
// and once the buffers fit, a single-worker call must not allocate.
func TestScoreBatchIntoReuse(t *testing.T) {
	ind, grp, ug := synthData(t)
	det, err := NewDetector(detectorConfig(), ind, grp, ug)
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	if _, err := det.Fit(ctx, 0, 90); err != nil {
		t.Fatal(err)
	}
	// Warm dst on a wider window, then reuse it on a narrower one.
	dst, err := det.ScoreBatchInto(ctx, nil, 95, 119)
	if err != nil {
		t.Fatal(err)
	}
	for _, span := range []struct{ from, to cert.Day }{{100, 106}, {95, 119}} {
		want, err := det.ScoreBatch(ctx, span.from, span.to)
		if err != nil {
			t.Fatal(err)
		}
		if dst, err = det.ScoreBatchInto(ctx, dst, span.from, span.to); err != nil {
			t.Fatal(err)
		}
		for ai := range want {
			if dst[ai].Aspect != want[ai].Aspect || dst[ai].From != want[ai].From || dst[ai].To != want[ai].To {
				t.Fatalf("span %v..%v aspect %d: header %+v, want %+v",
					span.from, span.to, ai, dst[ai], want[ai])
			}
			for u := range want[ai].Scores {
				for i := range want[ai].Scores[u] {
					if math.Float64bits(dst[ai].Scores[u][i]) != math.Float64bits(want[ai].Scores[u][i]) {
						t.Fatalf("span %v..%v aspect %d user %d day %d: reused %x, fresh %x",
							span.from, span.to, ai, u, i,
							math.Float64bits(dst[ai].Scores[u][i]), math.Float64bits(want[ai].Scores[u][i]))
					}
				}
			}
		}
	}
	// Steady state: recycled series + pooled scorers + single worker means
	// no allocations at all.
	defer nn.SetWorkerBudget(nn.WorkerBudget())
	nn.SetWorkerBudget(1)
	allocs := testing.AllocsPerRun(5, func() {
		var err error
		if dst, err = det.ScoreBatchInto(ctx, dst, 95, 119); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 0 && !raceEnabled {
		t.Errorf("steady-state ScoreBatchInto allocated %.0f objects/op, want 0", allocs)
	}
}

// TestScoreBatchConcurrent runs several full ScoreBatch calls in parallel
// on one detector: the pooled scorers must hand each goroutine its own
// forward workspace, and every call must produce identical bits.
func TestScoreBatchConcurrent(t *testing.T) {
	ind, grp, ug := synthData(t)
	det, err := NewDetector(detectorConfig(), ind, grp, ug)
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	if _, err := det.Fit(ctx, 0, 90); err != nil {
		t.Fatal(err)
	}
	want, err := det.ScoreBatch(ctx, 95, 119)
	if err != nil {
		t.Fatal(err)
	}
	const callers = 4
	errs := make(chan error, callers)
	for c := 0; c < callers; c++ {
		go func() {
			series, err := det.ScoreBatch(ctx, 95, 119)
			if err != nil {
				errs <- err
				return
			}
			for ai := range want {
				for u := range want[ai].Scores {
					for i := range want[ai].Scores[u] {
						if math.Float64bits(series[ai].Scores[u][i]) != math.Float64bits(want[ai].Scores[u][i]) {
							errs <- fmt.Errorf("concurrent ScoreBatch diverged at aspect %d user %d day %d", ai, u, i)
							return
						}
					}
				}
			}
			errs <- nil
		}()
	}
	for c := 0; c < callers; c++ {
		if err := <-errs; err != nil {
			t.Fatal(err)
		}
	}
}
