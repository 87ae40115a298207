package deviation

import (
	"testing"

	"acobe/internal/cert"
	"acobe/internal/features"
	"acobe/internal/mathx"
)

// TestAccumulatorMatchesComputeField is the incremental-serving parity
// proof: pushing a measurement series day by day through an Accumulator
// must reproduce the batch field bit-for-bit (==, not epsilon), for every
// cell, under both weighted and unweighted configs. The online window
// advance in internal/serve relies on this equality for its golden parity
// with the batch pipeline.
func TestAccumulatorMatchesComputeField(t *testing.T) {
	for _, weighted := range []bool{true, false} {
		cfg := Config{Window: 9, MatrixDays: 3, Delta: 3, Epsilon: 1, Weighted: weighted}
		users := []string{"a", "b", "c"}
		feats := []string{"f0", "f1"}
		tab, err := features.NewTable(users, feats, 2, 0, 79)
		if err != nil {
			t.Fatal(err)
		}
		rng := mathx.NewRNG(11)
		for u := range users {
			for f := range feats {
				for frame := 0; frame < 2; frame++ {
					for d := cert.Day(0); d <= 79; d++ {
						// Mix of bursty integers and smooth noise, with a
						// constant stretch to hit the epsilon floor.
						v := float64(int(rng.Normal(8, 4)))
						if d > 20 && d < 30 {
							v = 5
						}
						tab.Add(u, f, frame, d, v)
					}
				}
			}
		}
		field, err := ComputeField(tab, cfg)
		if err != nil {
			t.Fatal(err)
		}
		for u := range users {
			for f := range feats {
				for frame := 0; frame < 2; frame++ {
					series := tab.Series(u, f, frame)
					want := field.SigmaSeries(u, f, frame)
					var acc Accumulator
					hist := make([]float64, cfg.Window-1)
					got := 0
					for i, m := range series {
						sigma, ok := acc.Push(cfg, hist, m)
						if !ok {
							if i >= cfg.Window-1 {
								t.Fatalf("weighted=%v u=%d f=%d frame=%d day %d: not primed", weighted, u, f, frame, i)
							}
							continue
						}
						if sigma != want[got] {
							t.Fatalf("weighted=%v u=%d f=%d frame=%d dev-day %d: stream %v != batch %v",
								weighted, u, f, frame, got, sigma, want[got])
						}
						got++
					}
					if got != len(want) {
						t.Fatalf("stream produced %d deviations, batch %d", got, len(want))
					}
				}
			}
		}
	}
}

// TestAccumulatorPrimed covers the fill-phase bookkeeping.
func TestAccumulatorPrimed(t *testing.T) {
	cfg := Config{Window: 4, MatrixDays: 1, Delta: 3, Epsilon: 1}
	var acc Accumulator
	hist := make([]float64, cfg.Window-1)
	for i := 0; i < 3; i++ {
		if acc.Primed(cfg) {
			t.Fatalf("primed after %d of 3 fill pushes", i)
		}
		if _, ok := acc.Push(cfg, hist, float64(i)); ok {
			t.Fatalf("push %d produced a deviation during fill", i)
		}
	}
	if !acc.Primed(cfg) {
		t.Fatal("not primed after window-1 pushes")
	}
	for i := 0; i < 2; i++ {
		if _, ok := acc.Push(cfg, hist, 9); !ok {
			t.Fatalf("primed accumulator produced no deviation on push %d after the fill", i+1)
		}
		if !acc.Primed(cfg) {
			t.Fatal("a sliding push unprimed the accumulator")
		}
	}
}
