package nn

import "sync"

// Cache-blocked, register-unrolled matmul micro-kernels. (The
// elementwise kernels of the layers and the optimizer are in
// elementwise.go; they keep each element's scalar expression, see
// kernels_avx_amd64.go.)
//
// Two kernel families cover the three products the network needs: A×B
// (forward) and Aᵀ×B (weight gradients). A×Bᵀ (input gradients) is A×B
// on a materialized Bᵀ (matmulABTInto): B is a weight, so the transpose
// moves 1/A.Rows as many elements as the product multiplies (1/64 at the
// training batch), and once it is done each output element is one column
// of an A×B sweep — the same ascending-k sum of rounded products as the
// dot-product sweep, so rule 1 below holds and rule 2 covers the zero
// skip. Both families share one design:
//
//   - The k-dimension is tiled so the working panel of B stays inside L1
//     (panelK, ≤ panelFloats floats ≈ 32 KiB).
//   - Per panel, four consecutive rows of B are packed quad-interleaved
//     (packPanel) so the micro-kernel reads its four B operands from one
//     contiguous 32-byte span instead of four distant rows.
//   - The micro-kernel (axpyQuad2) updates two output rows × four k-terms
//     at once: eight A scalars live in registers, each packed B load is
//     shared by both rows, and the two output rows are read and written
//     once per column — ~2.75 memory ops per multiply-add versus ~7 for
//     the plain ikj sweep.
//   - Slices are re-sliced to a common length before the inner loops so
//     the compiler can hoist the bounds checks.
//
// Bit-identity with the legacy sweeps (and therefore with the committed
// golden snapshots) is a hard requirement, maintained by two rules:
//
//  1. Every output element accumulates its k-terms in ascending-k order,
//     one addition per term, exactly like the serial sweep: the unrolled
//     update `o = o + t0 + t1 + t2 + t3` associates as
//     ((((o+t0)+t1)+t2)+t3).
//  2. Zero-skipping may differ from the legacy kernels only in ways that
//     cannot change bits: a running partial sum that starts at +0 can
//     never become -0 (x + (-x) rounds to +0, and +0 + ±0 = +0), so
//     adding — or skipping — a ±0 term leaves every finite accumulation
//     unchanged. The quad kernels skip a block only when all its A
//     scalars are zero; mixed blocks add the ±0 products.
var packPool = sync.Pool{New: func() any { return new([]float64) }}

// getPack returns a pooled pack buffer of length n. Steady-state matmuls
// reuse warmed buffers, keeping the kernels allocation-free.
func getPack(n int) *[]float64 {
	p := packPool.Get().(*[]float64)
	if cap(*p) < n {
		*p = make([]float64, n)
	}
	*p = (*p)[:n]
	return p
}

func putPack(p *[]float64) { packPool.Put(p) }

// panelFloats caps one packed B panel at 32 KiB — half a typical 64 KiB
// L1d, leaving room for the A rows and output rows streaming through.
const panelFloats = 4096

// panelK returns the k-tile depth for an n-wide B panel: the largest
// multiple of 4 whose packed panel fits panelFloats, floored at 4 (very
// wide panels spill past L1; the packed layout still wins on load count).
func panelK(n int) int {
	if n <= 0 {
		return 4
	}
	kc := (panelFloats / n) &^ 3
	if kc < 4 {
		kc = 4
	}
	return kc
}

// packLen is the buffer length matmulBlocked and matmulATBBlocked need to
// pack panels of an n-column B.
func packLen(n int) int { return panelK(n) * n }

// packPanel copies B rows [k0, k0+4·quads) into pack, quad-interleaved:
//
//	pack[(q·n+j)·4+t] == b[k0+4q+t][j]
//
// so the micro-kernel's four B operands for output column j sit in one
// contiguous 32-byte span.
func packPanel(pack []float64, b *Matrix, k0, quads int) {
	n := b.Cols
	for q := 0; q < quads; q++ {
		k := k0 + 4*q
		r0 := b.Data[k*n : (k+1)*n]
		r1 := b.Data[(k+1)*n : (k+2)*n]
		r2 := b.Data[(k+2)*n : (k+3)*n]
		r3 := b.Data[(k+3)*n : (k+4)*n]
		dst := pack[q*4*n : (q+1)*4*n]
		r1 = r1[:len(r0)]
		r2 = r2[:len(r0)]
		r3 = r3[:len(r0)]
		for j := range r0 {
			dst[3] = r3[j]
			dst[0] = r0[j]
			dst[1] = r1[j]
			dst[2] = r2[j]
			dst = dst[4:]
		}
	}
}

// axpyQuad2 accumulates four consecutive k-terms into two output rows:
//
//	orowR[j] += aR0·bp[4j] + aR1·bp[4j+1] + aR2·bp[4j+2] + aR3·bp[4j+3]
//
// with the products added left-to-right in ascending-k order, so every
// output element sees the exact addition sequence of the serial sweep.
func axpyQuad2(orow0, orow1, bp []float64, a00, a01, a02, a03, a10, a11, a12, a13 float64) {
	orow1 = orow1[:len(orow0)]
	for j := range orow0 {
		b0, b1, b2, b3 := bp[0], bp[1], bp[2], bp[3]
		bp = bp[4:]
		orow0[j] = orow0[j] + a00*b0 + a01*b1 + a02*b2 + a03*b3
		orow1[j] = orow1[j] + a10*b0 + a11*b1 + a12*b2 + a13*b3
	}
}

// axpyQuad1 is the single-output-row tail of axpyQuad2.
func axpyQuad1(orow, bp []float64, a0, a1, a2, a3 float64) {
	for j := range orow {
		b0, b1, b2, b3 := bp[0], bp[1], bp[2], bp[3]
		bp = bp[4:]
		orow[j] = orow[j] + a0*b0 + a1*b1 + a2*b2 + a3*b3
	}
}

// axpy1 accumulates a single k-term: orow += av·brow.
func axpy1(orow, brow []float64, av float64) {
	brow = brow[:len(orow)]
	for j := range orow {
		orow[j] += av * brow[j]
	}
}

// matmulBlocked computes rows [rs, re) of out = a × b (out pre-zeroed)
// with the packed pair-row × k-quad kernel. pack must hold packLen(b.Cols)
// floats.
func matmulBlocked(a, b, out *Matrix, rs, re int, pack []float64) {
	kTot, n := a.Cols, b.Cols
	if kTot == 0 || n == 0 {
		return
	}
	kc := panelK(n)
	for k0 := 0; k0 < kTot; k0 += kc {
		kEnd := k0 + kc
		if kEnd > kTot {
			kEnd = kTot
		}
		quads := (kEnd - k0) / 4
		packPanel(pack, b, k0, quads)
		kq := k0 + 4*quads // first k the packed quads do not cover
		i := rs
		for ; i+1 < re; i += 2 {
			arow0 := a.Data[i*kTot : (i+1)*kTot]
			arow1 := a.Data[(i+1)*kTot : (i+2)*kTot]
			orow0 := out.Data[i*n : (i+1)*n]
			orow1 := out.Data[(i+1)*n : (i+2)*n]
			for q := 0; q < quads; q++ {
				k := k0 + 4*q
				a00, a01, a02, a03 := arow0[k], arow0[k+1], arow0[k+2], arow0[k+3]
				a10, a11, a12, a13 := arow1[k], arow1[k+1], arow1[k+2], arow1[k+3]
				if a00 == 0 && a01 == 0 && a02 == 0 && a03 == 0 &&
					a10 == 0 && a11 == 0 && a12 == 0 && a13 == 0 {
					continue // ±0 terms never change a finite sum
				}
				axpyQuad2(orow0, orow1, pack[q*4*n:(q+1)*4*n], a00, a01, a02, a03, a10, a11, a12, a13)
			}
			for k := kq; k < kEnd; k++ {
				brow := b.Data[k*n : (k+1)*n]
				if av := arow0[k]; av != 0 {
					axpy1(orow0, brow, av)
				}
				if av := arow1[k]; av != 0 {
					axpy1(orow1, brow, av)
				}
			}
		}
		if i < re {
			arow := a.Data[i*kTot : (i+1)*kTot]
			orow := out.Data[i*n : (i+1)*n]
			for q := 0; q < quads; q++ {
				k := k0 + 4*q
				a0, a1, a2, a3 := arow[k], arow[k+1], arow[k+2], arow[k+3]
				if a0 == 0 && a1 == 0 && a2 == 0 && a3 == 0 {
					continue
				}
				axpyQuad1(orow, pack[q*4*n:(q+1)*4*n], a0, a1, a2, a3)
			}
			for k := kq; k < kEnd; k++ {
				if av := arow[k]; av != 0 {
					axpy1(orow, b.Data[k*n:(k+1)*n], av)
				}
			}
		}
	}
}

// matmulBlockedRange adapts the blocked kernels to the matmulKernel
// signature. On CPUs with OS-enabled AVX it takes the vector driver,
// which needs no pack buffer; otherwise each shard checks out its own
// pooled buffer, so the B panel is packed once per shard and shared by
// all its row pairs.
func matmulBlockedRange(a, b, out *Matrix, rs, re int) {
	if useAVX {
		matmulBlockedVec(a, b, out, rs, re)
		return
	}
	pk := getPack(packLen(b.Cols))
	matmulBlocked(a, b, out, rs, re, *pk)
	putPack(pk)
}

// matmulATBBlocked computes output rows [is, ie) of out = aᵀ × b (out
// pre-zeroed): output row i is column i of a. It reuses the same packed
// panel and pair×quad kernel as matmulBlocked; only the A loads differ
// (column-strided instead of row-contiguous).
func matmulATBBlocked(a, b, out *Matrix, is, ie int, pack []float64) {
	kTot, n, ac := a.Rows, b.Cols, a.Cols
	if kTot == 0 || n == 0 {
		return
	}
	ad := a.Data
	kc := panelK(n)
	for k0 := 0; k0 < kTot; k0 += kc {
		kEnd := k0 + kc
		if kEnd > kTot {
			kEnd = kTot
		}
		quads := (kEnd - k0) / 4
		packPanel(pack, b, k0, quads)
		kq := k0 + 4*quads
		i := is
		for ; i+1 < ie; i += 2 {
			orow0 := out.Data[i*n : (i+1)*n]
			orow1 := out.Data[(i+1)*n : (i+2)*n]
			for q := 0; q < quads; q++ {
				base := (k0 + 4*q) * ac
				a00, a10 := ad[base+i], ad[base+i+1]
				base += ac
				a01, a11 := ad[base+i], ad[base+i+1]
				base += ac
				a02, a12 := ad[base+i], ad[base+i+1]
				base += ac
				a03, a13 := ad[base+i], ad[base+i+1]
				if a00 == 0 && a01 == 0 && a02 == 0 && a03 == 0 &&
					a10 == 0 && a11 == 0 && a12 == 0 && a13 == 0 {
					continue
				}
				axpyQuad2(orow0, orow1, pack[q*4*n:(q+1)*4*n], a00, a01, a02, a03, a10, a11, a12, a13)
			}
			for k := kq; k < kEnd; k++ {
				brow := b.Data[k*n : (k+1)*n]
				if av := ad[k*ac+i]; av != 0 {
					axpy1(orow0, brow, av)
				}
				if av := ad[k*ac+i+1]; av != 0 {
					axpy1(orow1, brow, av)
				}
			}
		}
		if i < ie {
			orow := out.Data[i*n : (i+1)*n]
			for q := 0; q < quads; q++ {
				base := (k0 + 4*q) * ac
				a0 := ad[base+i]
				a1 := ad[base+ac+i]
				a2 := ad[base+2*ac+i]
				a3 := ad[base+3*ac+i]
				if a0 == 0 && a1 == 0 && a2 == 0 && a3 == 0 {
					continue
				}
				axpyQuad1(orow, pack[q*4*n:(q+1)*4*n], a0, a1, a2, a3)
			}
			for k := kq; k < kEnd; k++ {
				if av := ad[k*ac+i]; av != 0 {
					axpy1(orow, b.Data[k*n:(k+1)*n], av)
				}
			}
		}
	}
}

// matmulATBBlockedRange adapts the blocked Aᵀ×B kernels to the
// matmulKernel signature, with the same AVX/scalar split as
// matmulBlockedRange.
func matmulATBBlockedRange(a, b, out *Matrix, is, ie int) {
	if useAVX {
		matmulATBBlockedVec(a, b, out, is, ie)
		return
	}
	pk := getPack(packLen(b.Cols))
	matmulATBBlocked(a, b, out, is, ie, *pk)
	putPack(pk)
}
