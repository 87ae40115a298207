package deviation

import (
	"encoding/binary"
	"math"
	"testing"

	"acobe/internal/cert"
	"acobe/internal/features"
)

// FuzzSigma decodes the input as a measurement followed by a history series
// (8 bytes per float64) and checks the invariants every deviation must
// satisfy: clamped to [-Δ, Δ], finite, std floored at ε, and deterministic.
// It checks them on the Sigma oracle and on the σ the program runs: a
// one-cell table of the history followed by the measurement, with the
// window spanning all of it, through ComputeField and through a
// StreamField advanced one day at a time, which must agree bit for bit.
// Values are bounded to the count-like magnitudes the detector actually
// measures; unbounded float64 histories overflow the variance accumulation,
// which is outside the feature domain.
func FuzzSigma(f *testing.F) {
	enc := func(xs ...float64) []byte {
		out := make([]byte, 0, 8*len(xs))
		for _, x := range xs {
			out = binary.LittleEndian.AppendUint64(out, math.Float64bits(x))
		}
		return out
	}
	f.Add(enc(5, 1, 2, 3, 2, 1))
	f.Add(enc(1e9, 0, 0, 0, 0))
	f.Add(enc(0))          // measurement with empty history
	f.Add(enc(-3.5, 2, 2)) // constant history
	f.Add([]byte{1, 2, 3}) // trailing partial chunk
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) < 8 {
			return
		}
		if len(data) > 8*1024 {
			data = data[:8*1024]
		}
		decode := func(b []byte) (float64, bool) {
			x := math.Float64frombits(binary.LittleEndian.Uint64(b))
			return x, !math.IsNaN(x) && !math.IsInf(x, 0) && math.Abs(x) <= 1e12
		}
		m, ok := decode(data[:8])
		if !ok {
			return
		}
		var history []float64
		for b := data[8:]; len(b) >= 8; b = b[8:] {
			x, ok := decode(b[:8])
			if !ok {
				return
			}
			history = append(history, x)
		}
		cfg := DefaultConfig()
		sigma, std := Sigma(m, history, cfg)
		if math.IsNaN(sigma) || math.IsInf(sigma, 0) {
			t.Fatalf("Sigma(%g, %d-point history) = %g, want finite", m, len(history), sigma)
		}
		if math.Abs(sigma) > cfg.Delta {
			t.Fatalf("|sigma| = %g exceeds Δ = %g", math.Abs(sigma), cfg.Delta)
		}
		if std < cfg.Epsilon {
			t.Fatalf("std %g below floor ε = %g", std, cfg.Epsilon)
		}
		if s2, d2 := Sigma(m, history, cfg); s2 != sigma || d2 != std {
			t.Fatalf("Sigma not deterministic: (%g, %g) vs (%g, %g)", sigma, std, s2, d2)
		}
		w := Weight(std)
		if w <= 0 || w > 1 || math.IsNaN(w) {
			t.Fatalf("Weight(%g) = %g outside (0, 1]", std, w)
		}

		if len(history) == 0 {
			return // ω = 1 is not a window
		}
		cfg.Window = len(history) + 1
		series := append(history, m)
		day := cert.Day(len(history))
		batch, err := features.NewTable([]string{"u"}, []string{"f"}, 1, 0, day)
		if err != nil {
			t.Fatal(err)
		}
		live, err := features.NewTable([]string{"u"}, []string{"f"}, 1, 0, 0)
		if err != nil {
			t.Fatal(err)
		}
		sf, err := NewStreamField(live, cfg)
		if err != nil {
			t.Fatal(err)
		}
		for d, v := range series {
			batch.Add(0, 0, 0, cert.Day(d), v)
			if err := live.EnsureDay(cert.Day(d)); err != nil {
				t.Fatal(err)
			}
			live.Add(0, 0, 0, cert.Day(d), v)
			if err := sf.Advance(); err != nil {
				t.Fatal(err)
			}
		}
		field, err := ComputeField(batch, cfg)
		if err != nil {
			t.Fatal(err)
		}
		want, got := field.Sigma(0, 0, 0, day), sf.Field().Sigma(0, 0, 0, day)
		if math.Float64bits(got) != math.Float64bits(want) {
			t.Fatalf("streamed σ %g, batch σ %g over a %d-day window", got, want, cfg.Window)
		}
		if math.IsNaN(want) || math.IsInf(want, 0) || math.Abs(want) > cfg.Delta {
			t.Fatalf("ComputeField σ = %g, want finite within ±Δ = %g", want, cfg.Delta)
		}
	})
}
