package core

import (
	"context"
	"runtime"
	"sync"
	"testing"

	"acobe/internal/autoencoder"
	"acobe/internal/features"
	"acobe/internal/nn"
)

// twoAspectConfig splits the synthetic features into two single-feature
// aspects so Fit actually exercises the concurrent ensemble path.
func twoAspectConfig() Config {
	cfg := detectorConfig()
	cfg.Aspects = []features.Aspect{
		{Name: "fa-only", Features: []string{"fa"}},
		{Name: "fb-only", Features: []string{"fb"}},
	}
	cfg.AEConfig = func(dim int) autoencoder.Config {
		c := autoencoder.FastConfig(dim)
		c.Hidden = []int{16, 8}
		c.Epochs = 10
		return c
	}
	return cfg
}

// TestFitParallelMatchesSequential trains the two-aspect ensemble twice —
// once with a worker budget of 4, once with a budget of 1, which makes the
// aspect goroutines take turns at AcquireWorker — and requires
// bit-identical per-aspect losses and investigation rankings. Each
// aspect's model owns its seed and RNG, so scheduling must not influence
// the result. GOMAXPROCS is raised so the run exercises real interleaving
// (and, under -race, the concurrent scoring path) even on a single-core
// machine.
func TestFitParallelMatchesSequential(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(4))
	defer nn.SetWorkerBudget(nn.WorkerBudget())
	ind, grp, ug := synthData(t)

	train := func(budget int) (map[string]float64, []Ranked) {
		nn.SetWorkerBudget(budget)
		det, err := NewDetector(twoAspectConfig(), ind, grp, ug)
		if err != nil {
			t.Fatal(err)
		}
		losses, err := det.Fit(context.Background(), 0, 90)
		if err != nil {
			t.Fatal(err)
		}
		ranked, err := det.Investigate(context.Background(), 95, 119)
		if err != nil {
			t.Fatal(err)
		}
		return losses, ranked
	}

	seqLosses, seqRanked := train(1)
	parLosses, parRanked := train(4)

	if len(seqLosses) != 2 || len(parLosses) != 2 {
		t.Fatalf("expected 2 aspect losses, got %d sequential / %d parallel", len(seqLosses), len(parLosses))
	}
	for aspect, want := range seqLosses {
		if got := parLosses[aspect]; got != want {
			t.Errorf("aspect %s: parallel loss %v != sequential %v", aspect, got, want)
		}
	}
	for i := range seqRanked {
		if seqRanked[i].User != parRanked[i].User || seqRanked[i].Priority != parRanked[i].Priority {
			t.Errorf("rank %d: parallel %v/%d != sequential %v/%d", i,
				parRanked[i].User, parRanked[i].Priority, seqRanked[i].User, seqRanked[i].Priority)
		}
	}
}

// TestSetWorkerBudgetEdgeCases: the budget floors at 1 (0 and negative
// requests must not wedge AcquireWorker), accepts oversubscription beyond
// GOMAXPROCS, and — because the kernels are bit-deterministic regardless of
// sharding — training under any budget produces identical results.
func TestSetWorkerBudgetEdgeCases(t *testing.T) {
	old := nn.WorkerBudget()
	defer nn.SetWorkerBudget(old)

	for _, tc := range []struct{ set, want int }{
		{0, 1},
		{-8, 1},
		{1, 1},
		{runtime.GOMAXPROCS(0) * 4, runtime.GOMAXPROCS(0) * 4},
	} {
		nn.SetWorkerBudget(tc.set)
		if got := nn.WorkerBudget(); got != tc.want {
			t.Fatalf("SetWorkerBudget(%d): budget = %d, want %d", tc.set, got, tc.want)
		}
		// The floored budget must still grant slots.
		nn.AcquireWorker()
		nn.ReleaseWorker()
	}

	ind, grp, ug := synthData(t)
	train := func(budgetSlots int) ([]Ranked, map[string]float64) {
		nn.SetWorkerBudget(budgetSlots)
		det, err := NewDetector(twoAspectConfig(), ind, grp, ug)
		if err != nil {
			t.Fatal(err)
		}
		losses, err := det.Fit(context.Background(), 0, 90)
		if err != nil {
			t.Fatal(err)
		}
		ranked, err := det.Investigate(context.Background(), 95, 119)
		if err != nil {
			t.Fatal(err)
		}
		return ranked, losses
	}
	starved, starvedLosses := train(1)
	oversub, oversubLosses := train(runtime.GOMAXPROCS(0) * 4)
	for aspect, want := range starvedLosses {
		if got := oversubLosses[aspect]; got != want {
			t.Errorf("aspect %s: loss %v under budget 1, %v oversubscribed", aspect, want, got)
		}
	}
	for i := range starved {
		if starved[i].User != oversub[i].User || starved[i].Priority != oversub[i].Priority {
			t.Errorf("rank %d: budget 1 gives %s/%d, oversubscribed gives %s/%d", i,
				starved[i].User, starved[i].Priority, oversub[i].User, oversub[i].Priority)
		}
	}
}

// TestConcurrentScoring races several Score calls over one trained
// detector. The forward pass is read-only after training and every scoring
// worker owns its Scorer buffers, so concurrent calls must be safe (this is
// what -race checks) and must all return identical scores.
func TestConcurrentScoring(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(4))
	ind, grp, ug := synthData(t)
	det, err := NewDetector(twoAspectConfig(), ind, grp, ug)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := det.Fit(context.Background(), 0, 90); err != nil {
		t.Fatal(err)
	}
	want, err := det.Score(context.Background(), 95, 119)
	if err != nil {
		t.Fatal(err)
	}

	const callers = 4
	results := make([][]*ScoreSeries, callers)
	errs := make([]error, callers)
	var wg sync.WaitGroup
	for c := 0; c < callers; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			results[c], errs[c] = det.Score(context.Background(), 95, 119)
		}(c)
	}
	wg.Wait()
	for c := 0; c < callers; c++ {
		if errs[c] != nil {
			t.Fatalf("caller %d: %v", c, errs[c])
		}
		if len(results[c]) != len(want) {
			t.Fatalf("caller %d: %d aspects, want %d", c, len(results[c]), len(want))
		}
		for a := range want {
			got := results[c][a]
			if got.Aspect != want[a].Aspect || got.From != want[a].From || got.To != want[a].To {
				t.Fatalf("caller %d aspect %d: series header mismatch", c, a)
			}
			for u := range want[a].Scores {
				for i := range want[a].Scores[u] {
					if got.Scores[u][i] != want[a].Scores[u][i] {
						t.Fatalf("caller %d aspect %s user %d day %d: %g != %g",
							c, got.Aspect, u, i, got.Scores[u][i], want[a].Scores[u][i])
					}
				}
			}
		}
	}
}
