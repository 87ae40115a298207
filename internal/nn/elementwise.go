package nn

import "math"

// Go entry points of the elementwise kernels used by the training layers,
// the optimizer and the inference epilogue. Each hands the first blocks×4
// elements (or, for the column functions, columns) to an AVX kernel and
// runs the rest in a Go loop that holds the scalar expression. Without
// AVX, vecBlocks is 0 and that loop covers everything, so the scalar
// fallback is the same code as the tail.
//
// Every lane evaluates its element's Go expression with the same
// operations in the same order, so results are bit-identical either way
// (kernels_avx_amd64.go lists the instructions allowed and why each is
// exact). The column functions put columns across lanes and walk the rows
// in ascending order, so each column's running sum adds its rows in the
// same order as the row-major scalar loop. The sigmoid's math.Exp stays
// scalar: there is no bit-identical vector exp, so only its divide runs in
// lanes.

// vecBlocks is how many 4-wide blocks of an n-element run the AVX kernels
// take: n/4 with AVX, 0 without.
func vecBlocks(n int) int {
	if useAVX {
		return n >> 2
	}
	return 0
}

// reluMask writes dst[i] = src[i] where sel[i] > 0 and +0 elsewhere
// (±0 and NaN select +0): ReLU forward with sel = src = x, its backward
// with sel the forward input and src the output gradient. dst may alias
// sel and src.
func reluMask(dst, sel, src []float64) {
	n := len(dst)
	sel, src = sel[:n], src[:n]
	nv := 0
	if blocks := vecBlocks(n); blocks > 0 {
		reluMaskAVX(&dst[0], &sel[0], &src[0], blocks)
		nv = blocks << 2
	}
	for i := nv; i < n; i++ {
		if sel[i] > 0 {
			dst[i] = src[i]
		} else {
			dst[i] = 0
		}
	}
}

// sigmoidInto writes dst[i] = 1 / (1 + exp(-x[i])). The exp runs in Go,
// the divide in lanes. dst may alias x.
func sigmoidInto(dst, x []float64) {
	n := len(dst)
	x = x[:n]
	for i, v := range x {
		dst[i] = math.Exp(-v)
	}
	nv := 0
	if blocks := vecBlocks(n); blocks > 0 {
		recipOnePlusAVX(&dst[0], blocks)
		nv = blocks << 2
	}
	for i := nv; i < n; i++ {
		dst[i] = 1 / (1 + dst[i])
	}
}

// sigmoidGrad writes the sigmoid's input gradient dst[i] = g[i]·y[i]·(1−y[i])
// from the output gradient g and the forward output y.
func sigmoidGrad(dst, g, y []float64) {
	n := len(dst)
	g, y = g[:n], y[:n]
	nv := 0
	if blocks := vecBlocks(n); blocks > 0 {
		sigmoidGradAVX(&dst[0], &g[0], &y[0], blocks)
		nv = blocks << 2
	}
	for i := nv; i < n; i++ {
		dst[i] = g[i] * y[i] * (1 - y[i])
	}
}

// adadeltaStep applies one Adadelta update to value from grad, advancing
// the squared-gradient and squared-update accumulators; omr is 1−ρ.
func adadeltaStep(value, grad, accGrad, accUpd []float64, rho, omr, eps, lr float64) {
	n := len(value)
	grad, accGrad, accUpd = grad[:n], accGrad[:n], accUpd[:n]
	nv := 0
	if blocks := vecBlocks(n); blocks > 0 {
		adadeltaAVX(&value[0], &grad[0], &accGrad[0], &accUpd[0], blocks, rho, omr, eps, lr)
		nv = blocks << 2
	}
	for i := nv; i < n; i++ {
		g := grad[i]
		accGrad[i] = rho*accGrad[i] + omr*g*g
		update := math.Sqrt(accUpd[i]+eps) / math.Sqrt(accGrad[i]+eps) * g
		accUpd[i] = rho*accUpd[i] + omr*update*update
		value[i] -= lr * update
	}
}

// colBlocks is vecBlocks for a column function over m: 0 when m has no
// rows, since the column kernels need at least one. The functions below reslice
// every matrix they hand a kernel to exactly Rows×Cols first, so a short
// buffer panics in Go rather than being overrun in assembly.
func colBlocks(m *Matrix) int {
	if m.Rows == 0 {
		return 0
	}
	return vecBlocks(m.Cols)
}

// colSumAdd adds every row of x into acc (length x.Cols), in ascending row
// order per column.
func colSumAdd(acc []float64, x *Matrix) {
	cols := x.Cols
	acc, xd := acc[:cols], x.Data[:x.Rows*cols]
	nv := 0
	if blocks := colBlocks(x); blocks > 0 {
		colSumAVX(&acc[0], &xd[0], x.Rows, cols, blocks)
		nv = blocks << 2
	}
	for i := 0; i < x.Rows; i++ {
		row := xd[i*cols : (i+1)*cols]
		for j := nv; j < cols; j++ {
			acc[j] += row[j]
		}
	}
}

// colSqDevAdd adds every row's squared deviation from mean into acc, in
// ascending row order per column.
func colSqDevAdd(acc, mean []float64, x *Matrix) {
	cols := x.Cols
	acc, mean, xd := acc[:cols], mean[:cols], x.Data[:x.Rows*cols]
	nv := 0
	if blocks := colBlocks(x); blocks > 0 {
		colSqDevAVX(&acc[0], &xd[0], &mean[0], x.Rows, cols, blocks)
		nv = blocks << 2
	}
	for i := 0; i < x.Rows; i++ {
		row := xd[i*cols : (i+1)*cols]
		for j := nv; j < cols; j++ {
			d := row[j] - mean[j]
			acc[j] += d * d
		}
	}
}

// bnNormalize is BatchNorm's training normalize pass: x̂ = (x−mean)·invStd
// into xhat and γ·x̂ + β into out.
func bnNormalize(out, xhat, x *Matrix, mean, invStd, gamma, beta []float64) {
	cols, size := x.Cols, x.Rows*x.Cols
	mean, invStd, gamma, beta = mean[:cols], invStd[:cols], gamma[:cols], beta[:cols]
	od, hd, xd := out.Data[:size], xhat.Data[:size], x.Data[:size]
	nv := 0
	if blocks := colBlocks(x); blocks > 0 {
		bnNormAVX(&od[0], &hd[0], &xd[0], &mean[0], &invStd[0], &gamma[0], &beta[0], x.Rows, cols, blocks)
		nv = blocks << 2
	}
	for i := 0; i < x.Rows; i++ {
		for j := nv; j < cols; j++ {
			idx := i*cols + j
			c := xd[idx] - mean[j]
			xh := c * invStd[j]
			hd[idx] = xh
			od[idx] = gamma[j]*xh + beta[j]
		}
	}
}

// bnGradSums adds the column sums of g into sumDy and of g⊙x̂ into
// sumDyXHat, in ascending row order per column.
func bnGradSums(sumDy, sumDyXHat []float64, g, xhat *Matrix) {
	cols, size := g.Cols, g.Rows*g.Cols
	sumDy, sumDyXHat = sumDy[:cols], sumDyXHat[:cols]
	gd, hd := g.Data[:size], xhat.Data[:size]
	nv := 0
	if blocks := colBlocks(g); blocks > 0 {
		bnGradSumsAVX(&sumDy[0], &sumDyXHat[0], &gd[0], &hd[0], g.Rows, cols, blocks)
		nv = blocks << 2
	}
	for i := 0; i < g.Rows; i++ {
		for j := nv; j < cols; j++ {
			idx := i*cols + j
			sumDy[j] += gd[idx]
			sumDyXHat[j] += gd[idx] * hd[idx]
		}
	}
}

// bnInputGrad writes BatchNorm's training input gradient
//
//	dst = scale·(n·(g·γ) − shift − (x̂·γ)·sumDyXHat)
//
// with the per-column factors scale = invStd/n and shift = γ·ΣDy.
func bnInputGrad(dst, g, xhat *Matrix, scale, shift, gamma, sumDyXHat []float64, n float64) {
	cols, size := g.Cols, g.Rows*g.Cols
	scale, shift, gamma, sumDyXHat = scale[:cols], shift[:cols], gamma[:cols], sumDyXHat[:cols]
	dd, gd, hd := dst.Data[:size], g.Data[:size], xhat.Data[:size]
	nv := 0
	if blocks := colBlocks(g); blocks > 0 {
		bnInputGradAVX(&dd[0], &gd[0], &hd[0], &scale[0], &shift[0], &gamma[0], &sumDyXHat[0], n, g.Rows, cols, blocks)
		nv = blocks << 2
	}
	for i := 0; i < g.Rows; i++ {
		for j := nv; j < cols; j++ {
			idx := i*cols + j
			dxhat := gd[idx] * gamma[j]
			dd[idx] = scale[j] * (n*dxhat - shift[j] - hd[idx]*gamma[j]*sumDyXHat[j])
		}
	}
}

// bnInferEpilogue applies a Dense bias and BatchNorm's inference affine to
// x in place: γ·((v+bias)−μ)·invStd + β.
func bnInferEpilogue(x *Matrix, bias, mean, invStd, gamma, beta []float64) {
	cols := x.Cols
	bias, mean, invStd, gamma, beta = bias[:cols], mean[:cols], invStd[:cols], gamma[:cols], beta[:cols]
	xd := x.Data[:x.Rows*cols]
	nv := 0
	if blocks := colBlocks(x); blocks > 0 {
		bnInferAVX(&xd[0], &bias[0], &mean[0], &invStd[0], &gamma[0], &beta[0], x.Rows, cols, blocks)
		nv = blocks << 2
	}
	for i := 0; i < x.Rows; i++ {
		row := xd[i*cols : (i+1)*cols]
		for j := nv; j < cols; j++ {
			row[j] = gamma[j]*((row[j]+bias[j])-mean[j])*invStd[j] + beta[j]
		}
	}
}
