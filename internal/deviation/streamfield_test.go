package deviation

import (
	"fmt"
	"math"
	"testing"

	"acobe/internal/cert"
	"acobe/internal/features"
	"acobe/internal/mathx"
)

// streamMeasure is a pseudo-random measurement: mostly bursty integers,
// with a constant stretch (days 21..29) whose history variance falls
// under the ε floor.
func streamMeasure(rng *mathx.RNG, d cert.Day) float64 {
	if d > 20 && d < 30 {
		return 5
	}
	return math.Max(0, float64(int(rng.Normal(6, 3))))
}

// TestStreamFieldMatchesComputeField grows a table by EnsureDay and
// advances a stream over it (the online ingest path), and checks that
// after every Advance the streaming field is bit-identical to a batch
// ComputeField over a fresh table with the same content — both the raw
// sigma series and the compound matrices built from them. It covers
// weighted and unweighted configs, ω = 2 (the day leaving the window is
// the day before), ω = 8 and 9, and advancing one day at a time or in
// uneven steps of 1 day, then 3, then the rest.
func TestStreamFieldMatchesComputeField(t *testing.T) {
	users := []string{"u0", "u1", "u2"}
	feats := []string{"fa", "fb"}
	const lastDay = cert.Day(59)

	// Reference table with the full span up front.
	ref, err := features.NewTable(users, feats, 2, 0, lastDay)
	if err != nil {
		t.Fatal(err)
	}
	rng := mathx.NewRNG(23)
	for d := cert.Day(0); d <= lastDay; d++ {
		for u := range users {
			for f := range feats {
				for frame := 0; frame < 2; frame++ {
					ref.Add(u, f, frame, d, streamMeasure(rng, d))
				}
			}
		}
	}

	for _, weighted := range []bool{true, false} {
		for _, window := range []int{2, 8, 9} {
			for _, walk := range []struct {
				name  string
				steps []int
			}{{"daily", nil}, {"1+3+rest", []int{1, 3}}} {
				name := fmt.Sprintf("weighted=%v/window=%d/%s", weighted, window, walk.name)
				t.Run(name, func(t *testing.T) {
					cfg := Config{Window: window, MatrixDays: 3, Delta: 3, Epsilon: 1, Weighted: weighted}
					checkStreamSteps(t, cfg, ref, walk.steps)
				})
			}
		}
	}
}

// checkStreamSteps advances a stream over a table grown from ref in the
// given steps (day counts; nil means one day at a time, and past the
// listed steps the rest of ref comes in one step) and compares it with a
// batch field after every Advance.
func checkStreamSteps(t *testing.T, cfg Config, ref *features.Table, steps []int) {
	users, feats := ref.Users(), ref.Features()
	_, lastDay := ref.Span()
	aspect := features.Aspect{Name: "a", Features: feats}

	// Live table that starts with one day and grows online.
	live, err := features.NewTable(users, feats, 2, 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	sf, err := NewStreamField(live, cfg)
	if err != nil {
		t.Fatal(err)
	}
	builder, err := NewBuilder(sf.Field(), nil, nil, aspect)
	if err != nil {
		t.Fatal(err)
	}

	for k, from := 0, cert.Day(0); from <= lastDay; k++ {
		d := from // one day at a time unless steps say otherwise
		if k < len(steps) {
			d = min(from+cert.Day(steps[k]-1), lastDay)
		} else if steps != nil {
			d = lastDay
		}
		if err := live.EnsureDay(d); err != nil {
			t.Fatal(err)
		}
		copyDays(live, ref, from, d)
		if err := sf.Advance(); err != nil {
			t.Fatal(err)
		}
		if sf.NextDay() != d+1 {
			t.Fatalf("day %v: NextDay = %v, want %v", d, sf.NextDay(), d+1)
		}
		from = d + 1
		if d < cert.Day(cfg.Window-1) {
			if sf.Field().EndDay() >= sf.Field().FirstDay() {
				t.Fatalf("day %v: stream emitted deviations while priming", d)
			}
			continue
		}
		// Batch recompute over the prefix 0..d.
		prefix, err := features.NewTable(users, feats, 2, 0, d)
		if err != nil {
			t.Fatal(err)
		}
		copyDays(prefix, ref, 0, d)
		batch, err := ComputeField(prefix, cfg)
		if err != nil {
			t.Fatal(err)
		}
		if sf.Field().FirstDay() != batch.FirstDay() || sf.Field().EndDay() != batch.EndDay() {
			t.Fatalf("day %v: stream span %v..%v, batch %v..%v", d,
				sf.Field().FirstDay(), sf.Field().EndDay(), batch.FirstDay(), batch.EndDay())
		}
		for u := range users {
			for f := range feats {
				for frame := 0; frame < 2; frame++ {
					got := sf.Field().SigmaSeries(u, f, frame)
					want := batch.SigmaSeries(u, f, frame)
					if len(got) != len(want) {
						t.Fatalf("day %v: series length %d != %d", d, len(got), len(want))
					}
					for i := range got {
						if got[i] != want[i] {
							t.Fatalf("day %v u=%d f=%d frame=%d idx=%d: stream %v != batch %v",
								d, u, f, frame, i, got[i], want[i])
						}
					}
				}
			}
		}
		// Matrices straight off the streaming field must match too.
		if d >= builder.FirstMatrixDay() {
			bb, err := NewBuilder(batch, nil, nil, aspect)
			if err != nil {
				t.Fatal(err)
			}
			got := make([]float64, builder.Dim())
			want := make([]float64, bb.Dim())
			for u := range users {
				if err := builder.BuildInto(u, d, got); err != nil {
					t.Fatal(err)
				}
				if err := bb.BuildInto(u, d, want); err != nil {
					t.Fatal(err)
				}
				for i := range got {
					if got[i] != want[i] {
						t.Fatalf("day %v u=%d matrix idx %d: stream %v != batch %v", d, u, i, got[i], want[i])
					}
				}
			}
		}
	}
}

// copyDays adds ref's measurements of days from..to into dst.
func copyDays(dst, ref *features.Table, from, to cert.Day) {
	for u := range ref.Users() {
		for f := range ref.Features() {
			for frame := 0; frame < ref.Frames(); frame++ {
				for d := from; d <= to; d++ {
					dst.Add(u, f, frame, d, ref.At(u, f, frame, d))
				}
			}
		}
	}
}

// TestStreamFieldEmpty: a field with no consumed deviation days reports an
// empty range and Advance on an unchanged table is a no-op.
func TestStreamFieldEmpty(t *testing.T) {
	cfg := Config{Window: 5, MatrixDays: 2, Delta: 3, Epsilon: 1}
	tab, err := features.NewTable([]string{"u"}, []string{"f"}, 1, 10, 11)
	if err != nil {
		t.Fatal(err)
	}
	sf, err := NewStreamField(tab, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := sf.Advance(); err != nil {
		t.Fatal(err)
	}
	if sf.Field().EndDay() >= sf.Field().FirstDay() {
		t.Fatalf("field claims deviation days after %d table days", tab.Days())
	}
	if err := sf.Advance(); err != nil { // idempotent
		t.Fatal(err)
	}
	if got := sf.NextDay(); got != 12 {
		t.Fatalf("NextDay = %v, want 12", got)
	}
}
