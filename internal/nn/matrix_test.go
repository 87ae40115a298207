package nn

import (
	"math"
	"testing"
	"testing/quick"

	"acobe/internal/mathx"
)

// naiveMatMul is the reference implementation the optimized kernels are
// checked against.
func naiveMatMul(a, b *Matrix) *Matrix {
	out := NewMatrix(a.Rows, b.Cols)
	for i := 0; i < a.Rows; i++ {
		for j := 0; j < b.Cols; j++ {
			var s float64
			for k := 0; k < a.Cols; k++ {
				s += a.Data[i*a.Cols+k] * b.Data[k*b.Cols+j]
			}
			out.Data[i*out.Cols+j] = s
		}
	}
	return out
}

func randomMatrix(r *mathx.RNG, rows, cols int) *Matrix {
	m := NewMatrix(rows, cols)
	for i := range m.Data {
		m.Data[i] = r.Normal(0, 1)
	}
	return m
}

func matricesEqual(a, b *Matrix, tol float64) bool {
	if a.Rows != b.Rows || a.Cols != b.Cols {
		return false
	}
	for i := range a.Data {
		if math.Abs(a.Data[i]-b.Data[i]) > tol {
			return false
		}
	}
	return true
}

func TestMatMulMatchesNaive(t *testing.T) {
	r := mathx.NewRNG(1)
	shapes := [][3]int{{1, 1, 1}, {2, 3, 4}, {5, 7, 2}, {16, 16, 16}, {33, 17, 9}}
	for _, s := range shapes {
		a := randomMatrix(r, s[0], s[1])
		b := randomMatrix(r, s[1], s[2])
		if !matricesEqual(mul(a, b), naiveMatMul(a, b), 1e-10) {
			t.Errorf("MatMul mismatch at shape %v", s)
		}
	}
}

func TestMatMulParallelPath(t *testing.T) {
	// Big enough to exceed parallelThreshold and exercise the sharded
	// kernel.
	r := mathx.NewRNG(2)
	a := randomMatrix(r, 200, 80)
	b := randomMatrix(r, 80, 64)
	if !matricesEqual(mul(a, b), naiveMatMul(a, b), 1e-9) {
		t.Error("parallel MatMul differs from naive")
	}
}

// transpose returns mᵀ in a fresh matrix.
func transpose(m *Matrix) *Matrix {
	out := NewMatrix(m.Cols, m.Rows)
	for i := 0; i < m.Rows; i++ {
		for j, v := range m.Row(i) {
			out.Data[j*m.Rows+i] = v
		}
	}
	return out
}

func TestMatMulATB(t *testing.T) {
	r := mathx.NewRNG(3)
	a := randomMatrix(r, 6, 4)
	b := randomMatrix(r, 6, 5)
	if !matricesEqual(mulATB(a, b), naiveMatMul(transpose(a), b), 1e-10) {
		t.Error("MatMulATB mismatch")
	}
}

func TestMatMulABT(t *testing.T) {
	r := mathx.NewRNG(4)
	a := randomMatrix(r, 6, 4)
	b := randomMatrix(r, 5, 4)
	if !matricesEqual(mulABT(a, b), naiveMatMul(a, transpose(b)), 1e-10) {
		t.Error("MatMulABT mismatch")
	}
}

func TestMatMulShapeMismatchPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("no panic on shape mismatch")
		}
	}()
	MatMulInto(NewMatrix(2, 2), NewMatrix(2, 3), NewMatrix(4, 2))
}

func TestFromRows(t *testing.T) {
	m := FromRows([][]float64{{1, 2}, {3, 4}, {5, 6}})
	if m.Rows != 3 || m.Cols != 2 || m.Data[5] != 6 {
		t.Errorf("FromRows produced %+v", m)
	}
	if FromRows(nil).Rows != 0 {
		t.Error("FromRows(nil) not empty")
	}
}

func TestFromRowsRaggedPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("no panic on ragged rows")
		}
	}()
	FromRows([][]float64{{1, 2}, {3}})
}

func TestAddRowVecAndColSums(t *testing.T) {
	m := FromRows([][]float64{{1, 2}, {3, 4}})
	m.AddRowVec([]float64{10, 20})
	want := FromRows([][]float64{{11, 22}, {13, 24}})
	if !matricesEqual(m, want, 0) {
		t.Errorf("AddRowVec got %v", m.Data)
	}
	sums := m.ColSumsInto(make([]float64, 2))
	if sums[0] != 24 || sums[1] != 46 {
		t.Errorf("ColSums got %v", sums)
	}
}

func TestRowIsView(t *testing.T) {
	m := FromRows([][]float64{{1, 2}, {3, 4}})
	row := m.Row(1)
	row[0] = 42
	if m.Data[2] != 42 {
		t.Error("Row is not a view")
	}
}

// TestMatMulAssociativityProperty spot-checks (A·B)·v == A·(B·v).
func TestMatMulAssociativityProperty(t *testing.T) {
	if err := quick.Check(func(seed uint64) bool {
		r := mathx.NewRNG(seed)
		a := randomMatrix(r, 4, 5)
		b := randomMatrix(r, 5, 3)
		v := randomMatrix(r, 3, 1)
		left := mul(mul(a, b), v)
		right := mul(a, mul(b, v))
		return matricesEqual(left, right, 1e-9)
	}, &quick.Config{MaxCount: 30}); err != nil {
		t.Error(err)
	}
}
