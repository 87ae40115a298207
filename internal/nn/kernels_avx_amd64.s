// AVX micro-kernels for the blocked matmul path, and (after them) the
// elementwise kernels of the training layers, the optimizer and the
// inference epilogue.
//
// Matmul: strictly VMULPD + VADDPD, never FMA: each product must round to
// float64 before the add so every lane reproduces the scalar kernel's
// arithmetic bit for bit. Terms are applied in ascending-k order, matching
// the scalar accumulation ((((o+t0)+t1)+t2)+t3).
//
// Register notes: Y15/X15 is the Go ABI zero register and R14 holds g —
// both are left untouched. VZEROUPPER before every RET avoids SSE/AVX
// transition stalls in surrounding runtime code.

#include "textflag.h"

// func cpuid1ecx() uint32
TEXT ·cpuid1ecx(SB), NOSPLIT, $0-4
	MOVL $1, AX
	XORL CX, CX
	CPUID
	MOVL CX, ret+0(FP)
	RET

// func xgetbv0() uint32
TEXT ·xgetbv0(SB), NOSPLIT, $0-4
	XORL CX, CX
	XGETBV
	MOVL AX, ret+0(FP)
	RET

// func axpyPair4AVX(out0, out1, b *float64, blocks, stride int, a *[8]float64)
//
// For bl = 0..blocks-1, columns j = 4bl..4bl+3:
//   out0[j] = (((out0[j] + a[0]*b[j]) + a[1]*b[s+j]) + a[2]*b[2s+j]) + a[3]*b[3s+j]
//   out1[j] = same with a[4..7]
// blocks >= 1 (caller-guaranteed).
TEXT ·axpyPair4AVX(SB), NOSPLIT, $0-48
	MOVQ out0+0(FP), DI
	MOVQ out1+8(FP), SI
	MOVQ b+16(FP), BX
	MOVQ blocks+24(FP), CX
	MOVQ stride+32(FP), R8
	SHLQ $3, R8              // stride in bytes
	LEAQ (R8)(R8*2), R9      // 3*stride in bytes
	MOVQ a+40(FP), DX
	VBROADCASTSD (DX), Y7    // a[0..3]: row-0 scalars for the k-quad
	VBROADCASTSD 8(DX), Y8
	VBROADCASTSD 16(DX), Y9
	VBROADCASTSD 24(DX), Y10
	VBROADCASTSD 32(DX), Y11 // a[4..7]: row-1 scalars
	VBROADCASTSD 40(DX), Y12
	VBROADCASTSD 48(DX), Y13
	VBROADCASTSD 56(DX), Y14

pairloop:
	VMOVUPD (BX), Y0         // B rows k..k+3 at this column block
	VMOVUPD (BX)(R8*1), Y1
	VMOVUPD (BX)(R8*2), Y2
	VMOVUPD (BX)(R9*1), Y3

	VMOVUPD (DI), Y4         // out0: +t0 +t1 +t2 +t3, ascending k
	VMULPD  Y0, Y7, Y5
	VADDPD  Y5, Y4, Y4
	VMULPD  Y1, Y8, Y5
	VADDPD  Y5, Y4, Y4
	VMULPD  Y2, Y9, Y5
	VADDPD  Y5, Y4, Y4
	VMULPD  Y3, Y10, Y5
	VADDPD  Y5, Y4, Y4
	VMOVUPD Y4, (DI)

	VMOVUPD (SI), Y6         // out1, same B vectors
	VMULPD  Y0, Y11, Y5
	VADDPD  Y5, Y6, Y6
	VMULPD  Y1, Y12, Y5
	VADDPD  Y5, Y6, Y6
	VMULPD  Y2, Y13, Y5
	VADDPD  Y5, Y6, Y6
	VMULPD  Y3, Y14, Y5
	VADDPD  Y5, Y6, Y6
	VMOVUPD Y6, (SI)

	ADDQ $32, BX
	ADDQ $32, DI
	ADDQ $32, SI
	DECQ CX
	JNZ  pairloop

	VZEROUPPER
	RET

// func axpySingle4AVX(out, b *float64, blocks, stride int, a *[4]float64)
//
// Single-row form of axpyPair4AVX. blocks >= 1.
TEXT ·axpySingle4AVX(SB), NOSPLIT, $0-40
	MOVQ out+0(FP), DI
	MOVQ b+8(FP), BX
	MOVQ blocks+16(FP), CX
	MOVQ stride+24(FP), R8
	SHLQ $3, R8
	LEAQ (R8)(R8*2), R9
	MOVQ a+32(FP), DX
	VBROADCASTSD (DX), Y7
	VBROADCASTSD 8(DX), Y8
	VBROADCASTSD 16(DX), Y9
	VBROADCASTSD 24(DX), Y10

singleloop:
	VMOVUPD (BX), Y0
	VMOVUPD (BX)(R8*1), Y1
	VMOVUPD (BX)(R8*2), Y2
	VMOVUPD (BX)(R9*1), Y3

	VMOVUPD (DI), Y4
	VMULPD  Y0, Y7, Y5
	VADDPD  Y5, Y4, Y4
	VMULPD  Y1, Y8, Y5
	VADDPD  Y5, Y4, Y4
	VMULPD  Y2, Y9, Y5
	VADDPD  Y5, Y4, Y4
	VMULPD  Y3, Y10, Y5
	VADDPD  Y5, Y4, Y4
	VMOVUPD Y4, (DI)

	ADDQ $32, BX
	ADDQ $32, DI
	DECQ CX
	JNZ  singleloop

	VZEROUPPER
	RET

// func axpy1AVX(out, b *float64, blocks int, a float64)
//
// Single k-term: out[j] += a*b[j] over blocks*4 columns. blocks >= 1.
TEXT ·axpy1AVX(SB), NOSPLIT, $0-32
	MOVQ out+0(FP), DI
	MOVQ b+8(FP), BX
	MOVQ blocks+16(FP), CX
	VBROADCASTSD a+24(FP), Y7

oneloop:
	VMOVUPD (BX), Y0
	VMOVUPD (DI), Y4
	VMULPD  Y0, Y7, Y5
	VADDPD  Y5, Y4, Y4
	VMOVUPD Y4, (DI)

	ADDQ $32, BX
	ADDQ $32, DI
	DECQ CX
	JNZ  oneloop

	VZEROUPPER
	RET

// Elementwise kernels for the training layers, the optimizer and the
// inference epilogue. Each lane evaluates its element's scalar Go
// expression with the same operations in the same order: VADDPD, VSUBPD,
// VMULPD, VDIVPD and VSQRTPD are IEEE-754 correctly rounded, as the
// scalar +, -, *, / and math.Sqrt are. The left operand of every written
// operation is the first source, as in the Go expression. No FMA.

DATA one<>+0(SB)/8, $0x3ff0000000000000
GLOBL one<>(SB), RODATA|NOPTR, $8

// func reluMaskAVX(dst, sel, src *float64, blocks int)
//
// dst[j] = sel[j] > 0 ? src[j] : +0 over blocks*4 elements. The compare
// is GT_OQ (ordered, quiet), false for ±0 and NaN, so those lanes take
// the all-zero mask and become +0 with no branch. blocks >= 1.
TEXT ·reluMaskAVX(SB), NOSPLIT, $0-32
	MOVQ dst+0(FP), DI
	MOVQ sel+8(FP), SI
	MOVQ src+16(FP), BX
	MOVQ blocks+24(FP), CX
	SHLQ $5, CX
	XORQ AX, AX
	VXORPD Y6, Y6, Y6

reluloop:
	VMOVUPD (SI)(AX*1), Y0
	VCMPPD  $0x1e, Y6, Y0, Y1 // sel > +0
	VANDPD  (BX)(AX*1), Y1, Y2
	VMOVUPD Y2, (DI)(AX*1)
	ADDQ    $32, AX
	CMPQ    AX, CX
	JNE     reluloop

	VZEROUPPER
	RET

// func recipOnePlusAVX(x *float64, blocks int)
//
// x[j] = 1 / (1 + x[j]) in place over blocks*4 elements: the sigmoid's
// divide, once x holds exp(-v). blocks >= 1.
TEXT ·recipOnePlusAVX(SB), NOSPLIT, $0-16
	MOVQ x+0(FP), DI
	MOVQ blocks+8(FP), CX
	SHLQ $5, CX
	XORQ AX, AX
	VBROADCASTSD one<>(SB), Y7

reciploop:
	VADDPD  (DI)(AX*1), Y7, Y0 // 1 + e
	VDIVPD  Y0, Y7, Y0         // 1 / (1 + e)
	VMOVUPD Y0, (DI)(AX*1)
	ADDQ    $32, AX
	CMPQ    AX, CX
	JNE     reciploop

	VZEROUPPER
	RET

// func sigmoidGradAVX(dst, dy, y *float64, blocks int)
//
// dst[j] = (g[j]*y[j]) * (1 - y[j]) over blocks*4 elements. blocks >= 1.
TEXT ·sigmoidGradAVX(SB), NOSPLIT, $0-32
	MOVQ dst+0(FP), DI
	MOVQ dy+8(FP), SI
	MOVQ y+16(FP), BX
	MOVQ blocks+24(FP), CX
	SHLQ $5, CX
	XORQ AX, AX
	VBROADCASTSD one<>(SB), Y7

sgradloop:
	VMOVUPD (SI)(AX*1), Y0
	VMOVUPD (BX)(AX*1), Y1
	VMULPD  Y1, Y0, Y0 // g*y
	VSUBPD  Y1, Y7, Y2 // 1 - y
	VMULPD  Y2, Y0, Y0
	VMOVUPD Y0, (DI)(AX*1)
	ADDQ    $32, AX
	CMPQ    AX, CX
	JNE     sgradloop

	VZEROUPPER
	RET

// func adadeltaAVX(value, grad, accG, accU *float64, blocks int, rho, omr, eps, lr float64)
//
// One Adadelta update per lane over blocks*4 weights, with omr = 1-ρ:
//   accG  = ρ*accG + ((1-ρ)*g)*g
//   u     = (√(accU+ε) / √(accG+ε)) * g
//   accU  = ρ*accU + ((1-ρ)*u)*u
//   value = value - lr*u
// blocks >= 1.
TEXT ·adadeltaAVX(SB), NOSPLIT, $0-72
	MOVQ value+0(FP), DI
	MOVQ grad+8(FP), SI
	MOVQ accG+16(FP), BX
	MOVQ accU+24(FP), R8
	MOVQ blocks+32(FP), CX
	VBROADCASTSD rho+40(FP), Y8
	VBROADCASTSD omr+48(FP), Y9
	VBROADCASTSD eps+56(FP), Y10
	VBROADCASTSD lr+64(FP), Y11

	SHLQ $5, CX
	XORQ AX, AX

adaloop:
	VMOVUPD (SI)(AX*1), Y0 // g
	VMOVUPD (BX)(AX*1), Y1 // accG
	VMULPD  Y1, Y8, Y1   // ρ*accG
	VMULPD  Y0, Y9, Y2   // (1-ρ)*g
	VMULPD  Y0, Y2, Y2   // ((1-ρ)*g)*g
	VADDPD  Y2, Y1, Y1
	VMOVUPD Y1, (BX)(AX*1)

	VMOVUPD (R8)(AX*1), Y3 // accU
	VADDPD  Y10, Y3, Y4  // accU+ε
	VSQRTPD Y4, Y4
	VADDPD  Y10, Y1, Y5  // accG+ε
	VSQRTPD Y5, Y5
	VDIVPD  Y5, Y4, Y4
	VMULPD  Y0, Y4, Y4   // u

	VMULPD  Y3, Y8, Y3   // ρ*accU
	VMULPD  Y4, Y9, Y5   // (1-ρ)*u
	VMULPD  Y4, Y5, Y5   // ((1-ρ)*u)*u
	VADDPD  Y5, Y3, Y3
	VMOVUPD Y3, (R8)(AX*1)

	VMOVUPD (DI)(AX*1), Y6 // value
	VMULPD  Y4, Y11, Y5  // lr*u
	VSUBPD  Y5, Y6, Y6
	VMOVUPD Y6, (DI)(AX*1)
	ADDQ    $32, AX
	CMPQ    AX, CX
	JNE     adaloop

	VZEROUPPER
	RET

// The column kernels below put matrix columns across lanes: for each of
// rows rows (stride floats apart), in ascending order, they sweep the
// first blocks*4 columns, so every column's running sum sees its rows in
// ascending order, as the scalar row-major loops do. Per-column vectors
// (mean, γ, …) are indexed by column. rows >= 1, blocks >= 1.

// func colSumAVX(acc, x *float64, rows, stride, blocks int)
//
// acc[j] = acc[j] + x[r][j] for r = 0..rows-1.
TEXT ·colSumAVX(SB), NOSPLIT, $0-40
	MOVQ acc+0(FP), DI
	MOVQ x+8(FP), BX
	MOVQ rows+16(FP), R13
	MOVQ stride+24(FP), R12
	SHLQ $3, R12
	MOVQ blocks+32(FP), CX
	SHLQ $5, CX

sumrow:
	XORQ AX, AX

sumcol:
	VMOVUPD (DI)(AX*1), Y0
	VADDPD  (BX)(AX*1), Y0, Y0
	VMOVUPD Y0, (DI)(AX*1)
	ADDQ    $32, AX
	CMPQ    AX, CX
	JNE     sumcol

	ADDQ R12, BX
	DECQ R13
	JNZ  sumrow

	VZEROUPPER
	RET

// func colSqDevAVX(acc, x, mean *float64, rows, stride, blocks int)
//
// acc[j] = acc[j] + d*d with d = x[r][j] - mean[j], for r = 0..rows-1.
TEXT ·colSqDevAVX(SB), NOSPLIT, $0-48
	MOVQ acc+0(FP), DI
	MOVQ x+8(FP), BX
	MOVQ mean+16(FP), R8
	MOVQ rows+24(FP), R13
	MOVQ stride+32(FP), R12
	SHLQ $3, R12
	MOVQ blocks+40(FP), CX
	SHLQ $5, CX

sqrow:
	XORQ AX, AX

sqcol:
	VMOVUPD (BX)(AX*1), Y1
	VSUBPD  (R8)(AX*1), Y1, Y1 // d = x - mean
	VMULPD  Y1, Y1, Y1         // d*d
	VMOVUPD (DI)(AX*1), Y0
	VADDPD  Y1, Y0, Y0
	VMOVUPD Y0, (DI)(AX*1)
	ADDQ    $32, AX
	CMPQ    AX, CX
	JNE     sqcol

	ADDQ R12, BX
	DECQ R13
	JNZ  sqrow

	VZEROUPPER
	RET

// func bnNormAVX(out, xhat, x, mean, invStd, gamma, beta *float64, rows, stride, blocks int)
//
// The training normalize pass: c = x - mean; x̂ = c*invStd; out = γ*x̂ + β.
TEXT ·bnNormAVX(SB), NOSPLIT, $0-80
	MOVQ out+0(FP), DI
	MOVQ xhat+8(FP), SI
	MOVQ x+16(FP), BX
	MOVQ mean+24(FP), R8
	MOVQ invStd+32(FP), R9
	MOVQ gamma+40(FP), R10
	MOVQ beta+48(FP), R11
	MOVQ rows+56(FP), R13
	MOVQ stride+64(FP), R12
	SHLQ $3, R12
	MOVQ blocks+72(FP), CX
	SHLQ $5, CX

normrow:
	XORQ AX, AX

normcol:
	VMOVUPD (BX)(AX*1), Y0
	VSUBPD  (R8)(AX*1), Y0, Y0 // c = x - mean
	VMULPD  (R9)(AX*1), Y0, Y0 // x̂ = c*invStd
	VMOVUPD Y0, (SI)(AX*1)
	VMOVUPD (R10)(AX*1), Y1
	VMULPD  Y0, Y1, Y1         // γ*x̂
	VADDPD  (R11)(AX*1), Y1, Y1
	VMOVUPD Y1, (DI)(AX*1)
	ADDQ    $32, AX
	CMPQ    AX, CX
	JNE     normcol

	ADDQ R12, DI
	ADDQ R12, SI
	ADDQ R12, BX
	DECQ R13
	JNZ  normrow

	VZEROUPPER
	RET

// func bnGradSumsAVX(sumDy, sumDyXHat, dy, xhat *float64, rows, stride, blocks int)
//
// sumDy[j] = sumDy[j] + g; sumDyXHat[j] = sumDyXHat[j] + g*x̂, for
// r = 0..rows-1.
TEXT ·bnGradSumsAVX(SB), NOSPLIT, $0-56
	MOVQ sumDy+0(FP), DI
	MOVQ sumDyXHat+8(FP), SI
	MOVQ dy+16(FP), BX
	MOVQ xhat+24(FP), R8
	MOVQ rows+32(FP), R13
	MOVQ stride+40(FP), R12
	SHLQ $3, R12
	MOVQ blocks+48(FP), CX
	SHLQ $5, CX

gsrow:
	XORQ AX, AX

gscol:
	VMOVUPD (BX)(AX*1), Y0     // g
	VMOVUPD (DI)(AX*1), Y1
	VADDPD  Y0, Y1, Y1
	VMOVUPD Y1, (DI)(AX*1)
	VMULPD  (R8)(AX*1), Y0, Y2 // g*x̂
	VMOVUPD (SI)(AX*1), Y3
	VADDPD  Y2, Y3, Y3
	VMOVUPD Y3, (SI)(AX*1)
	ADDQ    $32, AX
	CMPQ    AX, CX
	JNE     gscol

	ADDQ R12, BX
	ADDQ R12, R8
	DECQ R13
	JNZ  gsrow

	VZEROUPPER
	RET

// func bnInputGradAVX(dst, dy, xhat, scale, shift, gamma, sumDyXHat *float64, n float64, rows, stride, blocks int)
//
// The training input gradient, with the per-column factors
// scale = invStd/n and shift = γ*ΣDy:
//   dst = scale * (((n*(g*γ)) - shift) - ((x̂*γ)*ΣDyX̂))
TEXT ·bnInputGradAVX(SB), NOSPLIT, $0-88
	MOVQ dst+0(FP), DI
	MOVQ dy+8(FP), SI
	MOVQ xhat+16(FP), BX
	MOVQ scale+24(FP), R8
	MOVQ shift+32(FP), R9
	MOVQ gamma+40(FP), R10
	MOVQ sumDyXHat+48(FP), R11
	VBROADCASTSD n+56(FP), Y7
	MOVQ rows+64(FP), R13
	MOVQ stride+72(FP), R12
	SHLQ $3, R12
	MOVQ blocks+80(FP), CX
	SHLQ $5, CX

dxrow:
	XORQ AX, AX

dxcol:
	VMOVUPD (R10)(AX*1), Y4     // γ
	VMOVUPD (SI)(AX*1), Y0      // g
	VMULPD  Y4, Y0, Y0          // dx̂ = g*γ
	VMULPD  Y0, Y7, Y0          // n*dx̂
	VSUBPD  (R9)(AX*1), Y0, Y0  // - γ*ΣDy
	VMOVUPD (BX)(AX*1), Y1      // x̂
	VMULPD  Y4, Y1, Y1          // x̂*γ
	VMULPD  (R11)(AX*1), Y1, Y1 // (x̂*γ)*ΣDyX̂
	VSUBPD  Y1, Y0, Y0
	VMOVUPD (R8)(AX*1), Y2      // invStd/n
	VMULPD  Y0, Y2, Y2
	VMOVUPD Y2, (DI)(AX*1)
	ADDQ    $32, AX
	CMPQ    AX, CX
	JNE     dxcol

	ADDQ R12, DI
	ADDQ R12, SI
	ADDQ R12, BX
	DECQ R13
	JNZ  dxrow

	VZEROUPPER
	RET

// func bnInferAVX(x, bias, mean, invStd, gamma, beta *float64, rows, stride, blocks int)
//
// The fused inference epilogue, in place: x = γ*((x+bias)-μ)*invStd + β,
// associated as (((γ*((x+bias)-μ))*invStd)+β).
TEXT ·bnInferAVX(SB), NOSPLIT, $0-72
	MOVQ x+0(FP), DI
	MOVQ bias+8(FP), SI
	MOVQ mean+16(FP), BX
	MOVQ invStd+24(FP), R9
	MOVQ gamma+32(FP), R10
	MOVQ beta+40(FP), R11
	MOVQ rows+48(FP), R13
	MOVQ stride+56(FP), R12
	SHLQ $3, R12
	MOVQ blocks+64(FP), CX
	SHLQ $5, CX

infrow:
	XORQ AX, AX

infcol:
	VMOVUPD (DI)(AX*1), Y0
	VADDPD  (SI)(AX*1), Y0, Y0  // v + bias
	VSUBPD  (BX)(AX*1), Y0, Y0  // - μ
	VMOVUPD (R10)(AX*1), Y1
	VMULPD  Y0, Y1, Y1          // γ*(…)
	VMULPD  (R9)(AX*1), Y1, Y1  // *invStd
	VADDPD  (R11)(AX*1), Y1, Y1 // + β
	VMOVUPD Y1, (DI)(AX*1)
	ADDQ    $32, AX
	CMPQ    AX, CX
	JNE     infcol

	ADDQ R12, DI
	DECQ R13
	JNZ  infrow

	VZEROUPPER
	RET

// func addRowAVX(x, v *float64, rows, stride, blocks int)
//
// The Dense bias add, in place: x[r][j] = x[r][j] + v[j].
TEXT ·addRowAVX(SB), NOSPLIT, $0-40
	MOVQ x+0(FP), DI
	MOVQ v+8(FP), SI
	MOVQ rows+16(FP), R13
	MOVQ stride+24(FP), R12
	SHLQ $3, R12
	MOVQ blocks+32(FP), CX
	SHLQ $5, CX

addrow:
	XORQ AX, AX

addcol:
	VMOVUPD (DI)(AX*1), Y0
	VADDPD  (SI)(AX*1), Y0, Y0
	VMOVUPD Y0, (DI)(AX*1)
	ADDQ    $32, AX
	CMPQ    AX, CX
	JNE     addcol

	ADDQ R12, DI
	DECQ R13
	JNZ  addrow

	VZEROUPPER
	RET
