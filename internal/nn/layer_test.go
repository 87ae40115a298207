package nn

import (
	"math"
	"testing"

	"acobe/internal/mathx"
)

func TestDenseForwardKnown(t *testing.T) {
	d := NewDense(2, 2, mathx.NewRNG(1))
	copy(d.W.Value.Data, []float64{1, 2, 3, 4}) // W = [[1,2],[3,4]]
	copy(d.B.Value.Data, []float64{10, 20})
	x := FromRows([][]float64{{1, 1}})
	y := d.Forward(x, true)
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
	NewDense(3, 2, mathx.NewRNG(1)).Forward(NewMatrix(1, 4), true)
}

// numericGradCheck compares analytic parameter gradients against central
// finite differences for a small network and MSE loss.
func numericGradCheck(t *testing.T, net *Network, x, target *Matrix, tol float64) {
	t.Helper()
	net.ZeroGrads()
	pred := net.Forward(x, true)
	_, grad := MSE(pred, target)
	net.Backward(grad)

	const h = 1e-5
	for _, p := range net.Params() {
		for i := range p.Value.Data {
			orig := p.Value.Data[i]
			p.Value.Data[i] = orig + h
			lossPlus, _ := MSE(net.Forward(x, true), target)
			p.Value.Data[i] = orig - h
			lossMinus, _ := MSE(net.Forward(x, true), target)
			p.Value.Data[i] = orig
			numeric := (lossPlus - lossMinus) / (2 * h)
			analytic := p.Grad.Data[i]
			if math.Abs(numeric-analytic) > tol*(1+math.Abs(numeric)) {
				t.Errorf("param %s[%d]: analytic %.8f vs numeric %.8f", p.Name, i, analytic, numeric)
			}
		}
	}
}

func TestDenseGradientCheck(t *testing.T) {
	rng := mathx.NewRNG(5)
	net := NewNetwork(
		NewDense(3, 4, rng),
		NewActivation(ActTanh),
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
		{ActIdentity, []float64{-2, 0, 3}},
		{ActTanh, []float64{math.Tanh(-2), 0, math.Tanh(3)}},
		{ActSigmoid, []float64{1 / (1 + math.Exp(2)), 0.5, 1 / (1 + math.Exp(-3))}},
	}
	for _, tt := range tests {
		t.Run(tt.kind.String(), func(t *testing.T) {
			y := NewActivation(tt.kind).Forward(x, true)
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

func TestParamSlots(t *testing.T) {
	p := newParam("w", NewMatrix(2, 2))
	s1 := p.Slot("acc")
	s1.Data[0] = 7
	if p.Slot("acc").Data[0] != 7 {
		t.Error("slot not persisted")
	}
	if p.Slot("other").Data[0] != 0 {
		t.Error("distinct slots share storage")
	}
}

func TestGradAccumulation(t *testing.T) {
	rng := mathx.NewRNG(9)
	d := NewDense(2, 2, rng)
	x := randomMatrix(rng, 3, 2)
	y := d.Forward(x, true)
	g := NewMatrix(y.Rows, y.Cols)
	for i := range g.Data {
		g.Data[i] = 1
	}
	d.Backward(g)
	first := append([]float64(nil), d.W.Grad.Data...)
	d.Forward(x, true)
	d.Backward(g)
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
			out := withDst.Forward(x, true)
			nilDst.Forward(x, true)
			g := randTestMat(out.Rows, out.Cols, 4)
			withDst.BackwardInto(g, NewMatrix(x.Rows, x.Cols))
			nilDst.BackwardInto(g, nil)
			pw, pn := withDst.Params(), nilDst.Params()
			for i := range pw {
				matricesIdentical(t, pw[i].Name, pn[i].Grad, pw[i].Grad)
			}
		})
	}
}
