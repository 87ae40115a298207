package nn

import (
	"fmt"
	"math"
	"runtime"
	"testing"

	"acobe/internal/mathx"
)

// sparseMatrix returns a rows×cols matrix with ~30% exact zeros, so the
// parity tests exercise the quad-skip and legacy zero-skip paths.
func sparseMatrix(r *mathx.RNG, rows, cols int) *Matrix {
	m := NewMatrix(rows, cols)
	for i := range m.Data {
		if r.Float64() < 0.3 {
			continue
		}
		m.Data[i] = r.Normal(0, 1)
	}
	return m
}

// matricesIdentical requires bit-exact equality (math.Float64bits), the
// contract the blocked kernels must keep so golden snapshots never move.
func matricesIdentical(t *testing.T, label string, got, want *Matrix) {
	t.Helper()
	if got.Rows != want.Rows || got.Cols != want.Cols {
		t.Fatalf("%s: shape %dx%d, want %dx%d", label, got.Rows, got.Cols, want.Rows, want.Cols)
	}
	for i := range want.Data {
		if math.Float64bits(got.Data[i]) != math.Float64bits(want.Data[i]) {
			t.Fatalf("%s: element %d = %x, want %x", label, i,
				math.Float64bits(got.Data[i]), math.Float64bits(want.Data[i]))
		}
	}
}

// dispatchShapes covers every row of the dispatch size table in matrix.go
// plus the kernels' edge geometry: MACs below smallKernelCutoff (legacy
// sweep), between the cutoffs (blocked direct), and above
// parallelThreshold (blocked + sharded); odd row counts (pair-kernel
// tail), k not a multiple of 4 (quad tail), k crossing the panelFloats/n
// panel boundary, and single-row/single-column extremes.
var dispatchShapes = [][3]int{
	{1, 1, 1},      // 1 MAC: legacy
	{5, 7, 3},      // 105 MACs: legacy, odd everything
	{16, 32, 16},   // 8192 MACs == smallKernelCutoff: first blocked shape
	{33, 17, 9},    // odd rows + k tail
	{63, 100, 65},  // odd rows, k tail, odd cols
	{64, 64, 64},   // 256K MACs == parallelThreshold: first sharded shape
	{64, 392, 128}, // the training hot shape (sharded when workers allow)
	{3, 4099, 5},   // k crosses the packed-panel boundary mid-matrix
	{1, 513, 1023}, // single output row, wide panel (panelK floor)
	{2, 9000, 2},   // deep k, tiny n: many panels per product
}

// TestMatMulDispatchTable pins the blocked kernels to the legacy sweeps
// bit-for-bit on every size class of the dispatch table, for all three
// products, at worker budget 1 and at the default budget. On AVX machines
// this exercises the vector drivers; TestMatMulScalarKernelParity covers
// the packed scalar fallback.
func TestMatMulDispatchTable(t *testing.T) {
	runDispatchParity(t)
}

// TestMatMulScalarKernelParity forces the packed scalar kernels on
// machines whose default is the AVX path, so both kernel families stay
// pinned to the legacy sweeps regardless of the build host.
func TestMatMulScalarKernelParity(t *testing.T) {
	if !useAVX {
		t.Skip("scalar kernels are already the default on this machine")
	}
	useAVX = false
	defer func() { useAVX = true }()
	runDispatchParity(t)
}

func runDispatchParity(t *testing.T) {
	t.Helper()
	prev := WorkerBudget()
	defer SetWorkerBudget(prev)
	for _, budget := range []int{1, prev} {
		SetWorkerBudget(budget)
		r := mathx.NewRNG(99)
		for _, s := range dispatchShapes {
			rows, k, cols := s[0], s[1], s[2]

			a := sparseMatrix(r, rows, k)
			b := sparseMatrix(r, k, cols)
			want := NewMatrix(rows, cols)
			matmulRange(a, b, want, 0, rows)
			matricesIdentical(t, "MatMul", mul(a, b), want)

			at := sparseMatrix(r, k, rows)
			want = NewMatrix(rows, cols)
			matmulATBRange(at, b, want, 0, rows)
			matricesIdentical(t, "MatMulATB", mulATB(at, b), want)

			bt := sparseMatrix(r, cols, k)
			matricesIdentical(t, "MatMulABT", mulABT(a, bt), naiveMatMulABT(a, bt))
		}
	}
}

// reluGradMatrix returns a rows×cols matrix shaped like a gradient behind
// a ReLU: about half the entries are zeros, split between +0 and -0, and
// some 4-wide k-runs are all zero, so both the quad skip and the mixed
// blocks that add ±0 products are exercised.
func reluGradMatrix(r *mathx.RNG, rows, cols int) *Matrix {
	m := NewMatrix(rows, cols)
	negZero := math.Copysign(0, -1)
	for i := range m.Data {
		switch u := r.Float64(); {
		case i%cols/4%5 == 0: // an all-zero quad in every fifth k-block
			m.Data[i] = negZero
		case u < 0.25:
			m.Data[i] = 0
		case u < 0.5:
			m.Data[i] = negZero
		default:
			m.Data[i] = r.Normal(0, 1)
		}
	}
	return m
}

// TestMatMulABTParity pins A·Bᵀ — Bᵀ materialized, then the A×B kernels —
// to the dot-product reference bit for bit: shapes whose k crosses
// panelK(n), with odd rows and n%4 and k%4 tails, a ReLU-sparse A holding
// +0 and -0, at worker budgets 1 and 4, on the vector kernels (where the
// CPU has them) and on the packed scalar fallback.
func TestMatMulABTParity(t *testing.T) {
	shapes := [][3]int{ // rows, k, n: a is rows×k, b is n×k
		{3, 5, 2},      // legacy sweep
		{63, 130, 65},  // panelK(65) = 60: two panel crossings; odd rows, k%4 = 2, n%4 = 1
		{9, 33, 141},   // panelK(141) = 28; k%4 = 1, n%4 = 1
		{17, 601, 7},   // panelK(7) = 584; k%4 = 1, n%4 = 3
		{65, 64, 140},  // the referee's layer-0 dx shape with odd rows; sharded
		{64, 32, 64},   // referee dx of Dense(64→32)
		{64, 64, 32},   // referee dx of Dense(32→64)
		{64, 140, 64},  // referee dx of Dense(64→140): k crosses panelK(64) = 64 twice
		{1, 1023, 513}, // single row, panelK floor of 4
	}
	avx := []bool{false}
	if useAVX {
		avx = append(avx, true)
	}
	defer func(v bool) { useAVX = v }(useAVX)
	for _, on := range avx {
		useAVX = on
		for _, budget := range []int{1, 4} {
			withWorkerBudget(t, budget, func() {
				r := mathx.NewRNG(31)
				for _, s := range shapes {
					a := reluGradMatrix(r, s[0], s[1])
					b := sparseMatrix(r, s[2], s[1])
					label := fmt.Sprintf("avx=%v budget=%d %dx%d·(%dx%d)ᵀ", on, budget, s[0], s[1], s[2], s[1])
					matricesIdentical(t, label, mulABT(a, b), naiveMatMulABT(a, b))
				}
			})
		}
	}
}

// TestEffectiveWorkers pins the dispatch fix for the GOMAXPROCS=1
// regression: the effective worker count honors both the configured
// budget and the scheduler's live GOMAXPROCS, whichever is smaller.
func TestEffectiveWorkers(t *testing.T) {
	prev := WorkerBudget()
	defer SetWorkerBudget(prev)

	SetWorkerBudget(1)
	if got := EffectiveWorkers(); got != 1 {
		t.Errorf("EffectiveWorkers with budget 1 = %d, want 1", got)
	}
	SetWorkerBudget(64)
	if got, p := EffectiveWorkers(), runtime.GOMAXPROCS(0); got != min(64, p) {
		t.Errorf("EffectiveWorkers with budget 64 = %d, want min(64, GOMAXPROCS=%d)", got, p)
	}
}

// TestMatMulZeroDims checks the blocked kernels tolerate degenerate
// shapes (empty k or n) like the legacy ones do.
func TestMatMulZeroDims(t *testing.T) {
	for _, s := range [][3]int{{0, 3, 2}, {3, 0, 2}, {3, 2, 0}} {
		got := mul(NewMatrix(s[0], s[1]), NewMatrix(s[1], s[2]))
		if got.Rows != s[0] || got.Cols != s[2] {
			t.Errorf("MatMul zero-dim shape %v → %dx%d", s, got.Rows, got.Cols)
		}
	}
}

// BenchmarkMatMulDirectDispatch measures one shape from each row of the
// dispatch size table under a worker budget of 1 — the configuration
// PR 1's sharded kernels regressed. The 0 allocs/op reported for every
// size class is the proof of direct dispatch: spawning even one shard
// goroutine would allocate (goroutine closure + WaitGroup bookkeeping),
// so a zero-allocation steady state means the single-worker path never
// touches the goroutine machinery.
func BenchmarkMatMulDirectDispatch(b *testing.B) {
	prev := WorkerBudget()
	defer SetWorkerBudget(prev)
	SetWorkerBudget(1)
	for _, bc := range []struct {
		name string
		s    [3]int
	}{
		{"legacy_4Ki", [3]int{8, 16, 8}},      // < smallKernelCutoff
		{"blocked_64Ki", [3]int{32, 64, 32}},  // < parallelThreshold
		{"blocked_3Mi", [3]int{64, 392, 128}}, // ≥ parallelThreshold, 1 worker
	} {
		b.Run(bc.name, func(b *testing.B) {
			r := mathx.NewRNG(7)
			a := randomMatrix(r, bc.s[0], bc.s[1])
			w := randomMatrix(r, bc.s[1], bc.s[2])
			dst := NewMatrix(bc.s[0], bc.s[2])
			if allocs := testing.AllocsPerRun(3, func() { MatMulInto(dst, a, w) }); allocs != 0 {
				b.Fatalf("direct dispatch allocated %.0f objects/op, want 0 (goroutine-free)", allocs)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				MatMulInto(dst, a, w)
			}
		})
	}
}
