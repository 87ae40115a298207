//go:build !amd64

package nn

// Non-amd64 builds always take the scalar packed kernels; the stubs exist
// only to satisfy references from the shared driver code.

var useAVX = false

func axpyPair4AVX(out0, out1, b *float64, blocks, stride int, a *[8]float64) {
	panic("nn: axpyPair4AVX called without AVX support")
}

func axpySingle4AVX(out, b *float64, blocks, stride int, a *[4]float64) {
	panic("nn: axpySingle4AVX called without AVX support")
}

func axpy1AVX(out, b *float64, blocks int, a float64) {
	panic("nn: axpy1AVX called without AVX support")
}

func reluMaskAVX(dst, sel, src *float64, blocks int) {
	panic("nn: reluMaskAVX called without AVX support")
}

func recipOnePlusAVX(x *float64, blocks int) {
	panic("nn: recipOnePlusAVX called without AVX support")
}

func sigmoidGradAVX(dst, dy, y *float64, blocks int) {
	panic("nn: sigmoidGradAVX called without AVX support")
}

func adadeltaAVX(value, grad, accG, accU *float64, blocks int, rho, omr, eps, lr float64) {
	panic("nn: adadeltaAVX called without AVX support")
}

func colSumAVX(acc, x *float64, rows, stride, blocks int) {
	panic("nn: colSumAVX called without AVX support")
}

func colSqDevAVX(acc, x, mean *float64, rows, stride, blocks int) {
	panic("nn: colSqDevAVX called without AVX support")
}

func bnNormAVX(out, xhat, x, mean, invStd, gamma, beta *float64, rows, stride, blocks int) {
	panic("nn: bnNormAVX called without AVX support")
}

func bnGradSumsAVX(sumDy, sumDyXHat, dy, xhat *float64, rows, stride, blocks int) {
	panic("nn: bnGradSumsAVX called without AVX support")
}

func bnInputGradAVX(dst, dy, xhat, scale, shift, gamma, sumDyXHat *float64, n float64, rows, stride, blocks int) {
	panic("nn: bnInputGradAVX called without AVX support")
}

func bnInferAVX(x, bias, mean, invStd, gamma, beta *float64, rows, stride, blocks int) {
	panic("nn: bnInferAVX called without AVX support")
}

func addRowAVX(x, v *float64, rows, stride, blocks int) {
	panic("nn: addRowAVX called without AVX support")
}
