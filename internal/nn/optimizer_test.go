package nn

import (
	"math"
	"testing"
)

// quadParam builds a single scalar parameter with gradient = 2(x - c),
// minimizing (x-c)².
func quadParam(x0 float64) *Param {
	p := newParam(NewMatrix(1, 1))
	p.Value.Data[0] = x0
	return p
}

func stepQuadratic(opt *Adadelta, p *Param, c float64, steps int) float64 {
	for i := 0; i < steps; i++ {
		p.ZeroGrad()
		p.Grad.Data[0] = 2 * (p.Value.Data[0] - c)
		opt.Step([]*Param{p})
	}
	return p.Value.Data[0]
}

func TestAdadeltaConvergesOnQuadratic(t *testing.T) {
	p := quadParam(10)
	got := stepQuadratic(NewAdadelta(), p, 3, 4000)
	if math.Abs(got-3) > 0.05 {
		t.Errorf("Adadelta converged to %g, want ≈ 3", got)
	}
}

func TestAdadeltaMovesWithoutLearningRateTuning(t *testing.T) {
	// The appeal of Adadelta: the very first step already moves the
	// parameter even though no learning rate was chosen.
	p := quadParam(10)
	NewAdadelta().Step([]*Param{p})
	// Gradient is zero here (never set) — value must not move.
	if p.Value.Data[0] != 10 {
		t.Errorf("moved with zero gradient: %g", p.Value.Data[0])
	}
	p.Grad.Data[0] = 1
	NewAdadelta().Step([]*Param{p})
	if p.Value.Data[0] >= 10 {
		t.Errorf("did not move against gradient: %g", p.Value.Data[0])
	}
}

func TestOptimizerStateIsPerParameter(t *testing.T) {
	a := quadParam(1)
	b := quadParam(1)
	opt := NewAdadelta()
	a.Grad.Data[0] = 5
	b.Grad.Data[0] = 0
	opt.Step([]*Param{a, b})
	if a.Value.Data[0] == 1 {
		t.Error("param a did not move")
	}
	if b.Value.Data[0] != 1 {
		t.Error("param b moved despite zero gradient")
	}
}
