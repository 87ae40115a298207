package nn

import (
	"fmt"
	"math"
	"testing"

	"acobe/internal/mathx"
)

// elementwiseWidths are the run lengths and column counts the parity
// tests sweep: every n%4 tail, a width below one vector block, and the
// referee's 40- and 140-wide aspects.
var elementwiseWidths = []int{1, 3, 4, 13, 40, 64, 140}

// forEachAVX runs fn with the vector kernels off and, where the CPU has
// them, on, restoring the default afterwards.
func forEachAVX(t *testing.T, fn func(t *testing.T)) {
	t.Helper()
	modes := []bool{false}
	if useAVX {
		modes = append(modes, true)
	}
	defer func(v bool) { useAVX = v }(useAVX)
	for _, on := range modes {
		useAVX = on
		t.Run(fmt.Sprintf("avx=%v", on), fn)
	}
}

// specialValues are the inputs whose handling a lane could get wrong: the
// signed zeros the ReLU must map to +0, NaN, infinities, subnormals, and
// magnitudes where exp overflows or underflows.
var specialValues = []float64{
	0, math.Copysign(0, -1), math.NaN(), math.Inf(1), math.Inf(-1),
	5e-324, -5e-324, 1e-310, 1, -1, 745, -745, 1e300, -1e300,
}

// edgeSlice returns n values: normals, with about a third of the slots
// holding a special value.
func edgeSlice(r *mathx.RNG, n int) []float64 {
	s := make([]float64, n)
	for i := range s {
		if r.Float64() < 0.35 {
			s[i] = specialValues[int(r.Float64()*float64(len(specialValues)))]
		} else {
			s[i] = r.Normal(0, 2)
		}
	}
	return s
}

// edgeMatrix is edgeSlice shaped rows×cols.
func edgeMatrix(r *mathx.RNG, rows, cols int) *Matrix {
	return &Matrix{Rows: rows, Cols: cols, Data: edgeSlice(r, rows*cols)}
}

// finiteMatrix returns rows×cols normals with about 20% exact ±0, the
// operands BatchNorm sees in training.
func finiteMatrix(r *mathx.RNG, rows, cols int) *Matrix {
	m := NewMatrix(rows, cols)
	for i := range m.Data {
		switch u := r.Float64(); {
		case u < 0.1:
		case u < 0.2:
			m.Data[i] = math.Copysign(0, -1)
		default:
			m.Data[i] = r.Normal(0, 1.5)
		}
	}
	return m
}

// slicesIdentical requires bit-exact equality, NaN payloads included.
func slicesIdentical(t *testing.T, label string, got, want []float64) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: length %d, want %d", label, len(got), len(want))
	}
	for i := range want {
		if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
			t.Fatalf("%s: element %d = %v (%#x), want %v (%#x)", label, i,
				got[i], math.Float64bits(got[i]), want[i], math.Float64bits(want[i]))
		}
	}
}

// TestReLUMaskParity pins the ReLU forward (v > 0 ? v : 0) and backward
// (g where the input was > 0, else 0) to their scalar expressions: ±0 and
// NaN inputs give +0, and a selected -0 or NaN gradient passes unchanged.
func TestReLUMaskParity(t *testing.T) {
	forEachAVX(t, func(t *testing.T) {
		r := mathx.NewRNG(17)
		for _, n := range elementwiseWidths {
			x, g := edgeSlice(r, n), edgeSlice(r, n)
			fwd, bwd := make([]float64, n), make([]float64, n)
			for i, v := range x {
				if v > 0 {
					fwd[i] = v
				}
				if x[i] > 0 {
					bwd[i] = g[i]
				}
			}
			got := make([]float64, n)
			reluMask(got, x, x)
			slicesIdentical(t, fmt.Sprintf("forward n=%d", n), got, fwd)
			reluMask(got, x, g)
			slicesIdentical(t, fmt.Sprintf("backward n=%d", n), got, bwd)
			inPlace := append([]float64(nil), x...)
			reluMask(inPlace, inPlace, inPlace)
			slicesIdentical(t, fmt.Sprintf("in place n=%d", n), inPlace, fwd)
		}
	})
}

// TestSigmoidParity pins the sigmoid forward 1/(1+exp(-v)) and backward
// g·y·(1−y) to their scalar expressions.
func TestSigmoidParity(t *testing.T) {
	forEachAVX(t, func(t *testing.T) {
		r := mathx.NewRNG(23)
		for _, n := range elementwiseWidths {
			x, g, y := edgeSlice(r, n), edgeSlice(r, n), edgeSlice(r, n)
			fwd, bwd := make([]float64, n), make([]float64, n)
			for i, v := range x {
				fwd[i] = 1 / (1 + math.Exp(-v))
				bwd[i] = g[i] * y[i] * (1 - y[i])
			}
			got := make([]float64, n)
			sigmoidInto(got, x)
			slicesIdentical(t, fmt.Sprintf("forward n=%d", n), got, fwd)
			inPlace := append([]float64(nil), x...)
			sigmoidInto(inPlace, inPlace)
			slicesIdentical(t, fmt.Sprintf("in place n=%d", n), inPlace, fwd)
			sigmoidGrad(got, g, y)
			slicesIdentical(t, fmt.Sprintf("backward n=%d", n), got, bwd)
		}
	})
}

// TestAdadeltaParity runs several Adadelta steps through Step and through
// the scalar update as written, and requires the weights and both
// accumulators to match bit for bit.
func TestAdadeltaParity(t *testing.T) {
	forEachAVX(t, func(t *testing.T) {
		r := mathx.NewRNG(29)
		for _, n := range elementwiseWidths {
			opt := NewAdadelta()
			opt.LR = 0.7 // exercise the lr multiply
			p := newParam(&Matrix{Rows: 1, Cols: n, Data: edgeSlice(r, n)})
			value := append([]float64(nil), p.Value.Data...)
			accGrad, accUpd := make([]float64, n), make([]float64, n)
			for step := 0; step < 4; step++ {
				copy(p.Grad.Data, edgeSlice(r, n))
				for i := range value {
					g := p.Grad.Data[i]
					accGrad[i] = opt.Rho*accGrad[i] + (1-opt.Rho)*g*g
					update := math.Sqrt(accUpd[i]+opt.Eps) / math.Sqrt(accGrad[i]+opt.Eps) * g
					accUpd[i] = opt.Rho*accUpd[i] + (1-opt.Rho)*update*update
					value[i] -= opt.LR * update
				}
				opt.Step([]*Param{p})
				label := fmt.Sprintf("n=%d step %d", n, step)
				slicesIdentical(t, label+" acc_grad", p.accGrad, accGrad)
				slicesIdentical(t, label+" acc_update", p.accUpdate, accUpd)
				slicesIdentical(t, label+" value", p.Value.Data, value)
			}
		}
	})
}

// bnShapes are the batch shapes the BatchNorm kernel tests sweep: every
// width in elementwiseWidths at a single row, a few rows, and the
// training batch with and without an odd row.
func bnShapes() [][2]int {
	var s [][2]int
	for _, rows := range []int{1, 3, 64, 65} {
		for _, cols := range elementwiseWidths {
			s = append(s, [2]int{rows, cols})
		}
	}
	return s
}

// TestColumnKernelParity pins each column function to the scalar row-major
// loop it replaced: BatchNorm's mean and variance sums, normalize pass,
// backward sums and input gradient, the fused inference epilogue, and
// Dense's bias add (AddRowVec) and bias-gradient column sums
// (ColSumsInto).
func TestColumnKernelParity(t *testing.T) {
	forEachAVX(t, func(t *testing.T) {
		r := mathx.NewRNG(37)
		for _, s := range bnShapes() {
			rows, cols := s[0], s[1]
			label := fmt.Sprintf("%dx%d", rows, cols)
			x := finiteMatrix(r, rows, cols)
			vec := func() []float64 { return finiteMatrix(r, 1, cols).Data }
			gamma, beta, bias := vec(), vec(), vec()

			// Mean and variance: ascending-row column sums.
			wantMean, wantVar := make([]float64, cols), make([]float64, cols)
			for i := 0; i < rows; i++ {
				for j, v := range x.Row(i) {
					wantMean[j] += v
				}
			}
			for j := range wantMean {
				wantMean[j] /= float64(rows)
			}
			for i := 0; i < rows; i++ {
				for j, v := range x.Row(i) {
					d := v - wantMean[j]
					wantVar[j] += d * d
				}
			}
			mean, variance := make([]float64, cols), make([]float64, cols)
			colSumAdd(mean, x)
			for j := range mean {
				mean[j] /= float64(rows)
			}
			colSqDevAdd(variance, mean, x)
			slicesIdentical(t, label+" mean", mean, wantMean)
			slicesIdentical(t, label+" variance", variance, wantVar)

			// Normalize.
			invStd := make([]float64, cols)
			for j := range invStd {
				invStd[j] = 1 / math.Sqrt(variance[j]/float64(rows)+1e-3)
			}
			wantXHat, wantOut := NewMatrix(rows, cols), NewMatrix(rows, cols)
			for i := 0; i < rows; i++ {
				for j := 0; j < cols; j++ {
					idx := i*cols + j
					c := x.Data[idx] - mean[j]
					xhat := c * invStd[j]
					wantXHat.Data[idx] = xhat
					wantOut.Data[idx] = gamma[j]*xhat + beta[j]
				}
			}
			xhat, out := NewMatrix(rows, cols), NewMatrix(rows, cols)
			bnNormalize(out, xhat, x, mean, invStd, gamma, beta)
			matricesIdentical(t, label+" xhat", xhat, wantXHat)
			matricesIdentical(t, label+" out", out, wantOut)

			// Backward sums and input gradient.
			g := finiteMatrix(r, rows, cols)
			wantDy, wantDyXHat := make([]float64, cols), make([]float64, cols)
			for i := 0; i < rows; i++ {
				for j := 0; j < cols; j++ {
					idx := i*cols + j
					wantDy[j] += g.Data[idx]
					wantDyXHat[j] += g.Data[idx] * xhat.Data[idx]
				}
			}
			sumDy, sumDyXHat := make([]float64, cols), make([]float64, cols)
			bnGradSums(sumDy, sumDyXHat, g, xhat)
			slicesIdentical(t, label+" sumDy", sumDy, wantDy)
			slicesIdentical(t, label+" sumDyXHat", sumDyXHat, wantDyXHat)

			n := float64(rows)
			wantDx := NewMatrix(rows, cols)
			for i := 0; i < rows; i++ {
				for j := 0; j < cols; j++ {
					idx := i*cols + j
					dxhat := g.Data[idx] * gamma[j]
					wantDx.Data[idx] = invStd[j] / n *
						(n*dxhat - gamma[j]*sumDy[j] - xhat.Data[idx]*gamma[j]*sumDyXHat[j])
				}
			}
			scale, shift := make([]float64, cols), make([]float64, cols)
			for j := range scale {
				scale[j] = invStd[j] / n
				shift[j] = gamma[j] * sumDy[j]
			}
			dx := NewMatrix(rows, cols)
			bnInputGrad(dx, g, xhat, scale, shift, gamma, sumDyXHat, n)
			matricesIdentical(t, label+" dx", dx, wantDx)

			// Inference epilogue, in place, on edge values.
			v := edgeMatrix(r, rows, cols)
			want := clone(v)
			for i := 0; i < rows; i++ {
				row := want.Row(i)
				for j, e := range row {
					row[j] = gamma[j]*((e+bias[j])-mean[j])*invStd[j] + beta[j]
				}
			}
			bnInferEpilogue(v, bias, mean, invStd, gamma, beta)
			matricesIdentical(t, label+" infer", v, want)

			// Dense bias add and bias-gradient column sums.
			v = edgeMatrix(r, rows, cols)
			want = clone(v)
			for i := 0; i < rows; i++ {
				row := want.Row(i)
				for j := range row {
					row[j] += bias[j]
				}
			}
			v.AddRowVec(bias)
			matricesIdentical(t, label+" bias add", v, want)
			wantSums := make([]float64, cols)
			for i := 0; i < rows; i++ {
				for j, e := range g.Row(i) {
					wantSums[j] += e
				}
			}
			slicesIdentical(t, label+" column sums", g.ColSumsInto(make([]float64, cols)), wantSums)
		}
	})
}

// TestBatchNormLayerAVXParity drives the BatchNorm layer itself through
// training forward and backward passes — batch statistics, and the
// single-row batch that falls back to the moving statistics — with the
// vector kernels on and off, and requires every output, gradient and
// moving statistic to match bit for bit.
func TestBatchNormLayerAVXParity(t *testing.T) {
	if !useAVX {
		t.Skip("the vector kernels need AVX")
	}
	defer func(v bool) { useAVX = v }(useAVX)
	for _, s := range bnShapes() {
		rows, cols := s[0], s[1]
		run := func(on bool) (out, dx *Matrix, bn *BatchNorm) {
			useAVX = on
			r := mathx.NewRNG(uint64(41 + rows*1000 + cols))
			bn = NewBatchNorm(cols)
			copy(bn.Gamma.Value.Data, finiteMatrix(r, 1, cols).Data)
			copy(bn.Beta.Value.Data, finiteMatrix(r, 1, cols).Data)
			for step := 0; step < 2; step++ {
				x, g := finiteMatrix(r, rows, cols), finiteMatrix(r, rows, cols)
				out, dx = NewMatrix(rows, cols), NewMatrix(rows, cols)
				bn.ForwardInto(x, out)
				bn.BackwardInto(g, dx)
			}
			return out, dx, bn
		}
		outS, dxS, bnS := run(false)
		outV, dxV, bnV := run(true)
		label := fmt.Sprintf("%dx%d", rows, cols)
		matricesIdentical(t, label+" out", outV, outS)
		matricesIdentical(t, label+" dx", dxV, dxS)
		matricesIdentical(t, label+" moving mean", bnV.MovingMean, bnS.MovingMean)
		matricesIdentical(t, label+" moving var", bnV.MovingVar, bnS.MovingVar)
		matricesIdentical(t, label+" dγ", bnV.Gamma.Grad, bnS.Gamma.Grad)
		matricesIdentical(t, label+" dβ", bnV.Beta.Grad, bnS.Beta.Grad)
	}
}

// TestFitAVXMatchesScalar fits the referee's autoencoder (140-64-32-64-140,
// BatchNorm, ReLU, sigmoid output, batch 64) for 2 epochs with the vector
// kernels on and off. The 257 samples leave a one-row tail batch, so the
// BatchNorm moving-statistics arm runs too. Weights, moving statistics,
// both Adadelta accumulators, the loss and the scores must match bit for
// bit.
func TestFitAVXMatchesScalar(t *testing.T) {
	if !useAVX {
		t.Skip("the vector kernels need AVX")
	}
	defer func(v bool) { useAVX = v }(useAVX)
	r := mathx.NewRNG(53)
	x := NewMatrix(257, 140)
	for i := range x.Data {
		if r.Float64() < 0.7 {
			x.Data[i] = r.Float64()
		}
	}
	fit := func(on bool) (*Network, float64, []float64) {
		useAVX = on
		net := newRefereeNet(7)
		loss, err := net.Fit(x, x, TrainConfig{
			Epochs: 2, BatchSize: 64, RNG: mathx.NewRNG(3),
		})
		if err != nil {
			t.Fatal(err)
		}
		return net, loss, net.ReconstructionErrorsWS(net.NewWorkspace(), x, nil)
	}
	netS, lossS, scoresS := fit(false)
	netV, lossV, scoresV := fit(true)
	if math.Float64bits(lossV) != math.Float64bits(lossS) {
		t.Fatalf("loss %v (avx) vs %v (scalar)", lossV, lossS)
	}
	slicesIdentical(t, "scores", scoresV, scoresS)
	pS, pV := netS.Params(), netV.Params()
	for i := range pS {
		label := fmt.Sprintf("param %d", i)
		matricesIdentical(t, label, pV[i].Value, pS[i].Value)
		slicesIdentical(t, label+" acc_grad", pV[i].accGrad, pS[i].accGrad)
		slicesIdentical(t, label+" acc_update", pV[i].accUpdate, pS[i].accUpdate)
	}
	for i, l := range netS.Layers {
		if bn, ok := l.(*BatchNorm); ok {
			bnV := netV.Layers[i].(*BatchNorm)
			matricesIdentical(t, fmt.Sprintf("layer %d moving mean", i), bnV.MovingMean, bn.MovingMean)
			matricesIdentical(t, fmt.Sprintf("layer %d moving var", i), bnV.MovingVar, bn.MovingVar)
		}
	}
}
