package nn

// Vector (AVX) drivers for the blocked matmul kernels. These mirror
// matmulBlocked / matmulATBBlocked exactly — same k-tiling, same pair-row
// loop, same zero-skip rule, same ascending-k accumulation — but hand the
// 4-wide column sweep to the assembly micro-kernels and read B in place:
// with vector loads the four B rows of a quad no longer need the packed
// interleave, and the panelK tile already keeps the live B panel
// L1-resident, so packing would only add traffic. Column and k tails run
// in Go with the identical arithmetic expressions, so every output
// element is bit-for-bit the scalar kernel's result. The zero-skip test
// is written element by element: an array comparison (av == [8]float64{})
// would compile to a call to the runtime's generated equality function
// on every k-quad. Both are the same float ==, so ±0 skips and NaN does
// not (kernels.go rule 2).

// matmulBlockedVec computes rows [rs, re) of out = a × b (out pre-zeroed).
func matmulBlockedVec(a, b, out *Matrix, rs, re int) {
	kTot, n := a.Cols, b.Cols
	if kTot == 0 || n == 0 {
		return
	}
	blocks := n >> 2
	nv := blocks << 2 // columns the vector kernels cover
	kc := panelK(n)
	for k0 := 0; k0 < kTot; k0 += kc {
		kEnd := k0 + kc
		if kEnd > kTot {
			kEnd = kTot
		}
		kq := k0 + (kEnd-k0)&^3 // first k the quads do not cover
		i := rs
		for ; i+1 < re; i += 2 {
			arow0 := a.Data[i*kTot : (i+1)*kTot]
			arow1 := a.Data[(i+1)*kTot : (i+2)*kTot]
			orow0 := out.Data[i*n : (i+1)*n]
			orow1 := out.Data[(i+1)*n : (i+2)*n]
			for k := k0; k < kq; k += 4 {
				av := [8]float64{
					arow0[k], arow0[k+1], arow0[k+2], arow0[k+3],
					arow1[k], arow1[k+1], arow1[k+2], arow1[k+3],
				}
				if av[0] == 0 && av[1] == 0 && av[2] == 0 && av[3] == 0 &&
					av[4] == 0 && av[5] == 0 && av[6] == 0 && av[7] == 0 {
					continue // ±0 terms never change a finite sum
				}
				bq := b.Data[k*n : (k+4)*n]
				if blocks > 0 {
					axpyPair4AVX(&orow0[0], &orow1[0], &bq[0], blocks, n, &av)
				}
				for j := nv; j < n; j++ {
					b0, b1, b2, b3 := bq[j], bq[n+j], bq[2*n+j], bq[3*n+j]
					orow0[j] = orow0[j] + av[0]*b0 + av[1]*b1 + av[2]*b2 + av[3]*b3
					orow1[j] = orow1[j] + av[4]*b0 + av[5]*b1 + av[6]*b2 + av[7]*b3
				}
			}
			for k := kq; k < kEnd; k++ {
				brow := b.Data[k*n : (k+1)*n]
				if av := arow0[k]; av != 0 {
					axpy1Vec(orow0, brow, av, blocks, nv)
				}
				if av := arow1[k]; av != 0 {
					axpy1Vec(orow1, brow, av, blocks, nv)
				}
			}
		}
		if i < re {
			arow := a.Data[i*kTot : (i+1)*kTot]
			orow := out.Data[i*n : (i+1)*n]
			for k := k0; k < kq; k += 4 {
				av := [4]float64{arow[k], arow[k+1], arow[k+2], arow[k+3]}
				if av[0] == 0 && av[1] == 0 && av[2] == 0 && av[3] == 0 {
					continue
				}
				bq := b.Data[k*n : (k+4)*n]
				if blocks > 0 {
					axpySingle4AVX(&orow[0], &bq[0], blocks, n, &av)
				}
				for j := nv; j < n; j++ {
					orow[j] = orow[j] + av[0]*bq[j] + av[1]*bq[n+j] + av[2]*bq[2*n+j] + av[3]*bq[3*n+j]
				}
			}
			for k := kq; k < kEnd; k++ {
				if av := arow[k]; av != 0 {
					axpy1Vec(orow, b.Data[k*n:(k+1)*n], av, blocks, nv)
				}
			}
		}
	}
}

// matmulATBBlockedVec computes output rows [is, ie) of out = aᵀ × b (out
// pre-zeroed); only the A loads differ from matmulBlockedVec
// (column-strided instead of row-contiguous).
func matmulATBBlockedVec(a, b, out *Matrix, is, ie int) {
	kTot, n, ac := a.Rows, b.Cols, a.Cols
	if kTot == 0 || n == 0 {
		return
	}
	ad := a.Data
	blocks := n >> 2
	nv := blocks << 2
	kc := panelK(n)
	for k0 := 0; k0 < kTot; k0 += kc {
		kEnd := k0 + kc
		if kEnd > kTot {
			kEnd = kTot
		}
		kq := k0 + (kEnd-k0)&^3
		i := is
		for ; i+1 < ie; i += 2 {
			orow0 := out.Data[i*n : (i+1)*n]
			orow1 := out.Data[(i+1)*n : (i+2)*n]
			for k := k0; k < kq; k += 4 {
				base := k * ac
				av := [8]float64{
					ad[base+i], ad[base+ac+i], ad[base+2*ac+i], ad[base+3*ac+i],
					ad[base+i+1], ad[base+ac+i+1], ad[base+2*ac+i+1], ad[base+3*ac+i+1],
				}
				if av[0] == 0 && av[1] == 0 && av[2] == 0 && av[3] == 0 &&
					av[4] == 0 && av[5] == 0 && av[6] == 0 && av[7] == 0 {
					continue
				}
				bq := b.Data[k*n : (k+4)*n]
				if blocks > 0 {
					axpyPair4AVX(&orow0[0], &orow1[0], &bq[0], blocks, n, &av)
				}
				for j := nv; j < n; j++ {
					b0, b1, b2, b3 := bq[j], bq[n+j], bq[2*n+j], bq[3*n+j]
					orow0[j] = orow0[j] + av[0]*b0 + av[1]*b1 + av[2]*b2 + av[3]*b3
					orow1[j] = orow1[j] + av[4]*b0 + av[5]*b1 + av[6]*b2 + av[7]*b3
				}
			}
			for k := kq; k < kEnd; k++ {
				brow := b.Data[k*n : (k+1)*n]
				if av := ad[k*ac+i]; av != 0 {
					axpy1Vec(orow0, brow, av, blocks, nv)
				}
				if av := ad[k*ac+i+1]; av != 0 {
					axpy1Vec(orow1, brow, av, blocks, nv)
				}
			}
		}
		if i < ie {
			orow := out.Data[i*n : (i+1)*n]
			for k := k0; k < kq; k += 4 {
				base := k * ac
				av := [4]float64{ad[base+i], ad[base+ac+i], ad[base+2*ac+i], ad[base+3*ac+i]}
				if av[0] == 0 && av[1] == 0 && av[2] == 0 && av[3] == 0 {
					continue
				}
				bq := b.Data[k*n : (k+4)*n]
				if blocks > 0 {
					axpySingle4AVX(&orow[0], &bq[0], blocks, n, &av)
				}
				for j := nv; j < n; j++ {
					orow[j] = orow[j] + av[0]*bq[j] + av[1]*bq[n+j] + av[2]*bq[2*n+j] + av[3]*bq[3*n+j]
				}
			}
			for k := kq; k < kEnd; k++ {
				if av := ad[k*ac+i]; av != 0 {
					axpy1Vec(orow, b.Data[k*n:(k+1)*n], av, blocks, nv)
				}
			}
		}
	}
}

// axpy1Vec is axpy1 with the vector body over the first blocks×4 columns
// and a scalar tail for the rest.
func axpy1Vec(orow, brow []float64, av float64, blocks, nv int) {
	if blocks > 0 {
		axpy1AVX(&orow[0], &brow[0], blocks, av)
	}
	brow = brow[:len(orow)]
	for j := nv; j < len(orow); j++ {
		orow[j] += av * brow[j]
	}
}
