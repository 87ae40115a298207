package nn

import (
	"fmt"
	"math"
	"testing"

	"acobe/internal/mathx"
)

func TestDenseForwardKnown(t *testing.T) {
	d := NewDense(2, 2, mathx.NewRNG(1))
	copy(d.W.Value.Data, []float64{1, 2, 3, 4}) // W = [[1,2],[3,4]]
	copy(d.B.Value.Data, []float64{10, 20})
	x := FromRows([][]float64{{1, 1}})
	y := NewMatrix(1, 2)
	d.ForwardInto(x, y)
	// y = x·W + b = [1+3+10, 2+4+20]
	if y.Data[0] != 14 || y.Data[1] != 26 {
		t.Errorf("dense forward got %v", y.Data)
	}
}

func TestDenseInputMismatchPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("no panic on input width mismatch")
		}
	}()
	NewDense(3, 2, mathx.NewRNG(1)).ForwardInto(NewMatrix(1, 4), NewMatrix(1, 2))
}

// numericGradCheck compares analytic parameter gradients against central
// finite differences for a small network and MSE loss.
func numericGradCheck(t *testing.T, net *Network, x, target *Matrix, tol float64) {
	t.Helper()
	zeroGrads(net)
	pred, inputs := refForward(net, x)
	_, grad := mse(pred, target)
	refBackward(net, inputs, grad)

	loss := func() float64 {
		pred, _ := refForward(net, x)
		l, _ := mse(pred, target)
		return l
	}
	const h = 1e-5
	for pi, p := range net.Params() {
		for i := range p.Value.Data {
			orig := p.Value.Data[i]
			p.Value.Data[i] = orig + h
			lossPlus := loss()
			p.Value.Data[i] = orig - h
			lossMinus := loss()
			p.Value.Data[i] = orig
			numeric := (lossPlus - lossMinus) / (2 * h)
			analytic := p.Grad.Data[i]
			if math.Abs(numeric-analytic) > tol*(1+math.Abs(numeric)) {
				t.Errorf("param %d[%d]: analytic %.8f vs numeric %.8f", pi, i, analytic, numeric)
			}
		}
	}
}

func TestDenseGradientCheck(t *testing.T) {
	rng := mathx.NewRNG(5)
	net := NewNetwork(
		NewDense(3, 4, rng),
		NewActivation(ActSigmoid),
		NewDense(4, 2, rng),
	)
	x := randomMatrix(rng, 5, 3)
	target := randomMatrix(rng, 5, 2)
	numericGradCheck(t, net, x, target, 1e-4)
}

func TestReLUGradientCheck(t *testing.T) {
	rng := mathx.NewRNG(6)
	net := NewNetwork(
		NewDense(3, 5, rng),
		NewActivation(ActReLU),
		NewDense(5, 3, rng),
	)
	x := randomMatrix(rng, 4, 3)
	target := randomMatrix(rng, 4, 3)
	// ReLU is non-differentiable at 0; random inputs land there with
	// probability 0, so a normal tolerance works.
	numericGradCheck(t, net, x, target, 1e-4)
}

func TestSigmoidGradientCheck(t *testing.T) {
	rng := mathx.NewRNG(7)
	net := NewNetwork(
		NewDense(2, 3, rng),
		NewActivation(ActSigmoid),
	)
	x := randomMatrix(rng, 3, 2)
	target := randomMatrix(rng, 3, 3)
	numericGradCheck(t, net, x, target, 1e-4)
}

func TestActivationsPointwise(t *testing.T) {
	x := FromRows([][]float64{{-2, 0, 3}})
	tests := []struct {
		kind Activation
		want []float64
	}{
		{ActReLU, []float64{0, 0, 3}},
		{ActSigmoid, []float64{1 / (1 + math.Exp(2)), 0.5, 1 / (1 + math.Exp(-3))}},
	}
	for _, tt := range tests {
		t.Run(tt.kind.String(), func(t *testing.T) {
			y := NewMatrix(1, 3)
			NewActivation(tt.kind).ForwardInto(x, y)
			for i, want := range tt.want {
				if math.Abs(y.Data[i]-want) > 1e-12 {
					t.Errorf("%v(%g) = %g, want %g", tt.kind, x.Data[i], y.Data[i], want)
				}
			}
		})
	}
}

func TestXavierInitScale(t *testing.T) {
	d := NewDense(100, 100, mathx.NewRNG(8))
	limit := math.Sqrt(6.0 / 200)
	var maxAbs float64
	for _, w := range d.W.Value.Data {
		if a := math.Abs(w); a > maxAbs {
			maxAbs = a
		}
	}
	if maxAbs > limit {
		t.Errorf("weight %g exceeds Xavier limit %g", maxAbs, limit)
	}
	for _, b := range d.B.Value.Data {
		if b != 0 {
			t.Error("bias not zero-initialized")
		}
	}
}

// TestParamSlots checks Adadelta's two accumulators on a parameter: none
// before the first step, then two separate buffers shaped like the value
// that persist from one step to the next.
func TestParamSlots(t *testing.T) {
	p := newParam(NewMatrix(2, 2))
	if p.accGrad != nil || p.accUpdate != nil {
		t.Fatal("accumulators allocated before the first step")
	}
	opt := NewAdadelta()
	p.Grad.Data[0] = 1
	opt.Step([]*Param{p})
	if len(p.accGrad) != 4 || len(p.accUpdate) != 4 || &p.accGrad[0] == &p.accUpdate[0] {
		t.Fatalf("accumulators %d and %d long, want 4 apart", len(p.accGrad), len(p.accUpdate))
	}
	first := p.accGrad[0]
	p.ZeroGrad()
	opt.Step([]*Param{p})
	if want := opt.Rho * first; p.accGrad[0] != want {
		t.Errorf("squared-gradient average %g after a zero gradient, want ρ·%g = %g", p.accGrad[0], first, want)
	}
}

func TestGradAccumulation(t *testing.T) {
	rng := mathx.NewRNG(9)
	d := NewDense(2, 2, rng)
	x := randomMatrix(rng, 3, 2)
	y := NewMatrix(3, 2)
	d.ForwardInto(x, y)
	g := NewMatrix(y.Rows, y.Cols)
	for i := range g.Data {
		g.Data[i] = 1
	}
	d.BackwardInto(g, NewMatrix(3, 2))
	first := append([]float64(nil), d.W.Grad.Data...)
	d.ForwardInto(x, y)
	d.BackwardInto(g, NewMatrix(3, 2))
	for i := range first {
		if math.Abs(d.W.Grad.Data[i]-2*first[i]) > 1e-12 {
			t.Fatal("gradients do not accumulate across Backward calls")
		}
	}
	d.W.ZeroGrad()
	for _, v := range d.W.Grad.Data {
		if v != 0 {
			t.Fatal("ZeroGrad left residue")
		}
	}
}

// TestBackwardIntoNilDst pins the nil-dst contract of BackwardInto: every
// layer accumulates exactly the parameter gradients it would with a dst
// (bit for bit), and an activation, which has none, returns without
// touching the nil dst. BatchNorm runs on a batch and on a single row
// (the moving-statistics path).
func TestBackwardIntoNilDst(t *testing.T) {
	for _, tc := range []struct {
		name  string
		layer func() Layer
		rows  int
	}{
		{"dense", func() Layer { return NewDense(5, 3, mathx.NewRNG(2)) }, 4},
		{"batchnorm", func() Layer { return NewBatchNorm(5) }, 4},
		{"batchnorm/1row", func() Layer { return NewBatchNorm(5) }, 1},
		{"relu", func() Layer { return NewActivation(ActReLU) }, 4},
	} {
		t.Run(tc.name, func(t *testing.T) {
			withDst, nilDst := tc.layer(), tc.layer()
			x := randTestMat(tc.rows, 5, 3)
			out := NewMatrix(tc.rows, withDst.OutDim(5))
			withDst.ForwardInto(x, out)
			nilDst.ForwardInto(x, NewMatrix(tc.rows, nilDst.OutDim(5)))
			g := randTestMat(out.Rows, out.Cols, 4)
			withDst.BackwardInto(g, NewMatrix(x.Rows, x.Cols))
			nilDst.BackwardInto(g, nil)
			pw, pn := withDst.Params(), nilDst.Params()
			for i := range pw {
				matricesIdentical(t, fmt.Sprintf("param %d", i), pn[i].Grad, pw[i].Grad)
			}
		})
	}
}
