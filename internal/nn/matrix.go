// Package nn implements the neural-network substrate used by the ACOBE
// reproduction: what the paper's autoencoders run and nothing else. Dense
// layers, batch normalization, ReLU and sigmoid, the MSE loss and the
// Adadelta optimizer, with a mini-batch trainer and a fused inference
// plan. It is a from-scratch, stdlib-only replacement for the TensorFlow
// 2.0 stack the paper was implemented with.
package nn

import (
	"fmt"
	"sync"
)

// Matrix is a dense row-major matrix of float64. A Matrix with Rows == 1
// doubles as a row vector. The zero value is an empty matrix; use
// NewMatrix for a usable instance.
type Matrix struct {
	Rows, Cols int
	Data       []float64
}

// NewMatrix returns a zeroed rows×cols matrix.
func NewMatrix(rows, cols int) *Matrix {
	if rows < 0 || cols < 0 {
		panic(fmt.Sprintf("nn: invalid matrix shape %dx%d", rows, cols))
	}
	return &Matrix{Rows: rows, Cols: cols, Data: make([]float64, rows*cols)}
}

// FromRows builds a matrix whose rows are copies of the given slices. All
// rows must have equal length.
func FromRows(rows [][]float64) *Matrix {
	if len(rows) == 0 {
		return NewMatrix(0, 0)
	}
	cols := len(rows[0])
	m := NewMatrix(len(rows), cols)
	for i, r := range rows {
		if len(r) != cols {
			panic(fmt.Sprintf("nn: ragged rows: row 0 has %d cols, row %d has %d", cols, i, len(r)))
		}
		copy(m.Data[i*cols:(i+1)*cols], r)
	}
	return m
}

// Row returns a view (not a copy) of row r.
func (m *Matrix) Row(r int) []float64 { return m.Data[r*m.Cols : (r+1)*m.Cols] }

// Zero resets every element to 0 in place.
func (m *Matrix) Zero() {
	for i := range m.Data {
		m.Data[i] = 0
	}
}

// Matmul dispatch size table. The product size in scalar multiply-adds
// (MACs = rows × k × cols) picks the kernel; every kernel produces
// bit-identical output (see kernels.go), so the cutoffs affect only speed:
//
//	MACs < smallKernelCutoff            legacy ikj sweep — at this size the
//	                                    blocked kernel's panel pack costs a
//	                                    comparable number of memory ops to
//	                                    the whole product.
//	smallKernelCutoff ≤ MACs,           cache-blocked direct path on the
//	  below parallelThreshold or        calling goroutine: zero goroutines,
//	  EffectiveWorkers() == 1           zero scheduling overhead.
//	MACs ≥ parallelThreshold and        cache-blocked kernels, output rows
//	  EffectiveWorkers() > 1            sharded across the worker budget.
//
// TestMatMulDispatchTable pins this table; BenchmarkMatMulDirectDispatch
// asserts the single-worker path spawns no goroutines.
const (
	smallKernelCutoff = 1 << 13

	// parallelThreshold is the number of MACs above which the matmul
	// kernels shard work across goroutines.
	parallelThreshold = 1 << 18
)

// Reshape resizes m to rows×cols in place, reusing the backing array when
// its capacity allows. Element values are unspecified afterwards; callers
// must fully overwrite (or Zero) the matrix. It returns m for chaining.
func (m *Matrix) Reshape(rows, cols int) *Matrix {
	if rows < 0 || cols < 0 {
		panic(fmt.Sprintf("nn: invalid matrix shape %dx%d", rows, cols))
	}
	n := rows * cols
	if cap(m.Data) < n {
		m.Data = make([]float64, n)
	}
	m.Data = m.Data[:n]
	m.Rows, m.Cols = rows, cols
	return m
}

// MatMulInto computes a × b into dst (shaped a.Rows×b.Cols) and returns
// dst. Row ranges above parallelThreshold are sharded across goroutines
// within the package worker budget; results are bit-identical to the
// serial sweep either way.
func MatMulInto(dst, a, b *Matrix) *Matrix {
	if a.Cols != b.Rows {
		panic(fmt.Sprintf("nn: matmul shape mismatch %dx%d × %dx%d", a.Rows, a.Cols, b.Rows, b.Cols))
	}
	checkDstShape("MatMulInto", dst, a.Rows, b.Cols)
	dst.Zero()
	macs := a.Rows * a.Cols * b.Cols
	if macs < smallKernelCutoff {
		matmulRange(a, b, dst, 0, a.Rows)
		return dst
	}
	if macs < parallelThreshold {
		matmulBlockedRange(a, b, dst, 0, a.Rows)
		return dst
	}
	shardRows(matmulBlockedRange, a, b, dst, a.Rows)
	return dst
}

// matmulRange computes rows [rs, re) of out = a × b using an ikj loop
// order, which keeps the inner loop streaming over contiguous memory.
func matmulRange(a, b, out *Matrix, rs, re int) {
	for i := rs; i < re; i++ {
		arow := a.Data[i*a.Cols : (i+1)*a.Cols]
		orow := out.Data[i*out.Cols : (i+1)*out.Cols]
		for k, av := range arow {
			if av == 0 {
				continue
			}
			brow := b.Data[k*b.Cols : (k+1)*b.Cols]
			for j, bv := range brow {
				orow[j] += av * bv
			}
		}
	}
}

// MatMulATBInto computes aᵀ × b into dst (shaped a.Cols×b.Cols) and
// returns dst, sharding output-row ranges across goroutines above
// parallelThreshold. Each output element accumulates in the same k-order
// as the serial sweep, so results are bit-identical.
func MatMulATBInto(dst, a, b *Matrix) *Matrix {
	if a.Rows != b.Rows {
		panic(fmt.Sprintf("nn: matmulATB shape mismatch %dx%d × %dx%d", a.Rows, a.Cols, b.Rows, b.Cols))
	}
	checkDstShape("MatMulATBInto", dst, a.Cols, b.Cols)
	dst.Zero()
	macs := a.Rows * a.Cols * b.Cols
	if macs < smallKernelCutoff {
		matmulATBRange(a, b, dst, 0, a.Cols)
		return dst
	}
	if macs < parallelThreshold {
		matmulATBBlockedRange(a, b, dst, 0, a.Cols)
		return dst
	}
	shardRows(matmulATBBlockedRange, a, b, dst, a.Cols)
	return dst
}

// matmulATBRange computes output rows [is, ie) of out = aᵀ × b, i.e. the
// contributions of columns is..ie of a, streaming row-contiguously over a
// and b.
func matmulATBRange(a, b, out *Matrix, is, ie int) {
	for k := 0; k < a.Rows; k++ {
		arow := a.Data[k*a.Cols+is : k*a.Cols+ie]
		brow := b.Data[k*b.Cols : (k+1)*b.Cols]
		for i, av := range arow {
			if av == 0 {
				continue
			}
			orow := out.Data[(is+i)*out.Cols : (is+i+1)*out.Cols]
			for j, bv := range brow {
				orow[j] += av * bv
			}
		}
	}
}

// transposePool holds the bᵀ buffers of MatMulABTInto, so steady-state
// calls are allocation-free.
var transposePool = sync.Pool{New: func() any { return new(Matrix) }}

// MatMulABTInto computes a × bᵀ into dst (shaped a.Rows×b.Rows) and
// returns dst. It materializes bᵀ in a pooled buffer and runs MatMulInto
// on it, so it shares MatMulInto's dispatch and kernels; see kernels.go
// for why that is bit-identical to the dot-product sweep.
func MatMulABTInto(dst, a, b *Matrix) *Matrix {
	bt := transposePool.Get().(*Matrix)
	matmulABTInto(dst, a, b, bt)
	transposePool.Put(bt)
	return dst
}

// matmulABTInto is MatMulABTInto with a caller-owned transpose buffer bt,
// which it reshapes to b.Cols×b.Rows and overwrites.
func matmulABTInto(dst, a, b, bt *Matrix) {
	if a.Cols != b.Cols {
		panic(fmt.Sprintf("nn: matmulABT shape mismatch %dx%d × %dx%d", a.Rows, a.Cols, b.Rows, b.Cols))
	}
	checkDstShape("MatMulABTInto", dst, a.Rows, b.Rows)
	bt.Reshape(b.Cols, b.Rows)
	for i := 0; i < b.Rows; i++ {
		for j, v := range b.Row(i) {
			bt.Data[j*b.Rows+i] = v
		}
	}
	MatMulInto(dst, a, bt)
}

func checkDstShape(op string, dst *Matrix, rows, cols int) {
	if dst.Rows != rows || dst.Cols != cols {
		panic(fmt.Sprintf("nn: %s dst is %dx%d, want %dx%d", op, dst.Rows, dst.Cols, rows, cols))
	}
}

// AddRowVec adds the row vector v (1×cols) to every row of m, in place.
func (m *Matrix) AddRowVec(v []float64) {
	if len(v) != m.Cols {
		panic(fmt.Sprintf("nn: AddRowVec length %d vs %d cols", len(v), m.Cols))
	}
	cols := m.Cols
	md := m.Data[:m.Rows*cols]
	nv := 0
	if blocks := colBlocks(m); blocks > 0 {
		addRowAVX(&md[0], &v[0], m.Rows, cols, blocks)
		nv = blocks << 2
	}
	for i := 0; i < m.Rows; i++ {
		row := m.Row(i)
		for j := nv; j < len(row); j++ {
			row[j] += v[j]
		}
	}
}

// ColSumsInto writes the per-column sums of m into dst (length Cols),
// overwriting its contents, and returns dst.
func (m *Matrix) ColSumsInto(dst []float64) []float64 {
	if len(dst) != m.Cols {
		panic(fmt.Sprintf("nn: ColSumsInto dst length %d vs %d cols", len(dst), m.Cols))
	}
	for j := range dst {
		dst[j] = 0
	}
	colSumAdd(dst, m)
	return dst
}

func checkSameShape(op string, a, b *Matrix) {
	if a.Rows != b.Rows || a.Cols != b.Cols {
		panic(fmt.Sprintf("nn: %s shape mismatch %dx%d vs %dx%d", op, a.Rows, a.Cols, b.Rows, b.Cols))
	}
}
