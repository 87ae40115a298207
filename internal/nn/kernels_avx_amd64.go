package nn

// AVX support for the 4-wide kernels in kernels_avx_amd64.s: two families.
//
// The matmul micro-kernels use VMULPD/VADDPD only — never FMA. An FMA
// would skip the intermediate rounding of each product and change low
// bits, breaking the bit-identity contract with the scalar kernels and the
// committed golden snapshots. With separate multiply and add, each vector
// lane performs exactly the scalar sequence (round the product, then one
// rounded add, ascending k), so vector and scalar results are identical to
// the bit.
//
// The elementwise kernels (ReLU, the sigmoid's divide and gradient,
// BatchNorm's training passes and the inference epilogue, Dense's bias
// add and bias-gradient sums, the Adadelta update) give each lane one
// element, or one column, and evaluate that
// element's scalar Go expression in its written order. They may use
// VADDPD, VSUBPD, VMULPD, VDIVPD and VSQRTPD, each correctly rounded as
// the scalar +, -, *, / and math.Sqrt are; VCMPPD with GT_OQ, which is
// false for ±0 and NaN exactly as the scalar v > 0 is; and VANDPD with
// that mask, which yields +0 where the scalar select writes the constant
// 0. No FMA, no reciprocal or square-root estimate, no horizontal
// reduction: a column's sum stays in one lane, adding rows in ascending
// order. The sigmoid's math.Exp stays scalar, as no vector exp is
// bit-identical to it.

// cpuid1ecx returns ECX of CPUID leaf 1.
func cpuid1ecx() uint32

// xgetbv0 returns the low word of XCR0; only valid once cpuid1ecx has
// confirmed OSXSAVE support.
func xgetbv0() uint32

// useAVX reports whether the CPU supports AVX and the OS saves the
// 256-bit register state. It is a variable, not a constant, so tests can
// force the scalar fallback path.
var useAVX = func() bool {
	const (
		osxsaveBit = 1 << 27
		avxBit     = 1 << 28
	)
	ecx := cpuid1ecx()
	if ecx&osxsaveBit == 0 || ecx&avxBit == 0 {
		return false
	}
	// XCR0 bits 1 (SSE) and 2 (AVX) must both be OS-enabled.
	return xgetbv0()&0x6 == 0x6
}()

// axpyPair4AVX accumulates one k-quad into two output rows over the first
// blocks×4 columns: for each column j,
//
//	out0[j] = (((out0[j] + a[0]·b[j]) + a[1]·b[stride+j]) + a[2]·b[2·stride+j]) + a[3]·b[3·stride+j]
//	out1[j] = same with a[4..7]
//
// blocks must be ≥ 1; the caller handles the n%4 column tail in Go.
//
//go:noescape
func axpyPair4AVX(out0, out1, b *float64, blocks, stride int, a *[8]float64)

// axpySingle4AVX is the single-output-row form of axpyPair4AVX with a[0..3].
//
//go:noescape
func axpySingle4AVX(out, b *float64, blocks, stride int, a *[4]float64)

// axpy1AVX accumulates a single k-term over the first blocks×4 columns:
// out[j] += a·b[j].
//
//go:noescape
func axpy1AVX(out, b *float64, blocks int, a float64)

// The elementwise kernels (elementwise.go holds their Go callers and the
// scalar loops they must match). Each covers the first blocks×4
// elements, or columns for the column kernels, with blocks ≥ 1 (and
// rows ≥ 1); the caller runs the rest in Go.

//go:noescape
func reluMaskAVX(dst, sel, src *float64, blocks int)

//go:noescape
func recipOnePlusAVX(x *float64, blocks int)

//go:noescape
func sigmoidGradAVX(dst, dy, y *float64, blocks int)

//go:noescape
func adadeltaAVX(value, grad, accG, accU *float64, blocks int, rho, omr, eps, lr float64)

//go:noescape
func colSumAVX(acc, x *float64, rows, stride, blocks int)

//go:noescape
func colSqDevAVX(acc, x, mean *float64, rows, stride, blocks int)

//go:noescape
func bnNormAVX(out, xhat, x, mean, invStd, gamma, beta *float64, rows, stride, blocks int)

//go:noescape
func bnGradSumsAVX(sumDy, sumDyXHat, dy, xhat *float64, rows, stride, blocks int)

//go:noescape
func bnInputGradAVX(dst, dy, xhat, scale, shift, gamma, sumDyXHat *float64, n float64, rows, stride, blocks int)

//go:noescape
func bnInferAVX(x, bias, mean, invStd, gamma, beta *float64, rows, stride, blocks int)

//go:noescape
func addRowAVX(x, v *float64, rows, stride, blocks int)
