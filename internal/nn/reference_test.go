package nn

import "math"

// Test-file references. The package keeps one form of each operation — the
// …Into form the trainer and the scorer run — so the tests that need an
// allocating product, a layer-by-layer pass or a scalar inference oracle
// build it here from that form or from the plain expressions.

// mul, mulATB and mulABT return a×b, aᵀ×b and a×bᵀ in fresh matrices.
func mul(a, b *Matrix) *Matrix    { return MatMulInto(NewMatrix(a.Rows, b.Cols), a, b) }
func mulATB(a, b *Matrix) *Matrix { return MatMulATBInto(NewMatrix(a.Cols, b.Cols), a, b) }
func mulABT(a, b *Matrix) *Matrix { return MatMulABTInto(NewMatrix(a.Rows, b.Rows), a, b) }

// clone returns a deep copy of m.
func clone(m *Matrix) *Matrix {
	return &Matrix{Rows: m.Rows, Cols: m.Cols, Data: append([]float64(nil), m.Data...)}
}

// mse returns the mean-squared error of pred against target and its
// gradient with respect to pred, in a fresh matrix.
func mse(pred, target *Matrix) (float64, *Matrix) {
	grad := NewMatrix(pred.Rows, pred.Cols)
	return MSEInto(pred, target, grad), grad
}

// zeroGrads clears every parameter gradient of net.
func zeroGrads(net *Network) {
	for _, p := range net.Params() {
		p.ZeroGrad()
	}
}

// refForward is the test-file training forward pass: the same ForwardInto
// calls as the Workspace, each into a freshly allocated buffer. It returns
// the prediction and each layer's input, which refBackward needs.
func refForward(net *Network, x *Matrix) (pred *Matrix, inputs []*Matrix) {
	for _, l := range net.Layers {
		inputs = append(inputs, x)
		out := NewMatrix(x.Rows, l.OutDim(x.Cols))
		l.ForwardInto(x, out)
		x = out
	}
	return x, inputs
}

// refBackward back-propagates grad through every layer with fresh
// buffers, layer 0 included, and returns the gradient with respect to the
// network input.
func refBackward(net *Network, inputs []*Matrix, grad *Matrix) *Matrix {
	for i := len(net.Layers) - 1; i >= 0; i-- {
		dst := NewMatrix(inputs[i].Rows, inputs[i].Cols)
		net.Layers[i].BackwardInto(grad, dst)
		grad = dst
	}
	return grad
}

// refInfer is the scalar inference reference: each layer in turn over
// fresh buffers, every element getting (v+bias) after the product, then
// γ·(v−μ)·invStd+β with the moving statistics, then the activation — the
// expressions the fused plan must reproduce bit for bit.
func refInfer(net *Network, x *Matrix) *Matrix {
	for _, l := range net.Layers {
		out := NewMatrix(x.Rows, l.OutDim(x.Cols))
		switch l := l.(type) {
		case *Dense:
			MatMulInto(out, x, l.W.Value)
			for i := range out.Data {
				out.Data[i] += l.B.Value.Data[i%out.Cols]
			}
		case *BatchNorm:
			for i, v := range x.Data {
				j := i % x.Cols
				invStd := 1 / math.Sqrt(l.MovingVar.Data[j]+l.Epsilon)
				out.Data[i] = l.Gamma.Value.Data[j]*(v-l.MovingMean.Data[j])*invStd + l.Beta.Value.Data[j]
			}
		case *ActivationLayer:
			for i, v := range x.Data {
				switch l.Kind {
				case ActReLU:
					if v > 0 {
						out.Data[i] = v
					}
				case ActSigmoid:
					out.Data[i] = 1 / (1 + math.Exp(-v))
				}
			}
		}
		x = out
	}
	return x
}

// rowMSE returns each row's mean-squared error of pred against target.
func rowMSE(pred, target *Matrix) []float64 {
	out := make([]float64, pred.Rows)
	for i := range out {
		var ss float64
		for j, p := range pred.Row(i) {
			d := p - target.Row(i)[j]
			ss += d * d
		}
		out[i] = ss / float64(pred.Cols)
	}
	return out
}
