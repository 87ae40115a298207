package nn

import (
	"fmt"
	"math"
	"testing"

	"acobe/internal/mathx"
)

func randTestMat(rows, cols int, seed uint64) *Matrix {
	rng := mathx.NewRNG(seed)
	m := NewMatrix(rows, cols)
	for i := range m.Data {
		m.Data[i] = rng.Normal(0, 1)
	}
	return m
}

// naive reference products (naiveMatMul lives in matrix_test.go). Each
// output element accumulates over k in ascending order, exactly like the
// kernels, so comparisons are exact.
func naiveMatMulATB(a, b *Matrix) *Matrix {
	out := NewMatrix(a.Cols, b.Cols)
	for i := 0; i < a.Cols; i++ {
		for j := 0; j < b.Cols; j++ {
			var sum float64
			for k := 0; k < a.Rows; k++ {
				sum += a.Data[k*a.Cols+i] * b.Data[k*b.Cols+j]
			}
			out.Data[i*out.Cols+j] = sum
		}
	}
	return out
}

func naiveMatMulABT(a, b *Matrix) *Matrix {
	out := NewMatrix(a.Rows, b.Rows)
	for i := 0; i < a.Rows; i++ {
		for j := 0; j < b.Rows; j++ {
			var sum float64
			for k := 0; k < a.Cols; k++ {
				sum += a.Data[i*a.Cols+k] * b.Data[j*b.Cols+k]
			}
			out.Data[i*out.Cols+j] = sum
		}
	}
	return out
}

func matsExactlyEqual(t *testing.T, name string, got, want *Matrix) {
	t.Helper()
	if got.Rows != want.Rows || got.Cols != want.Cols {
		t.Fatalf("%s: shape %dx%d, want %dx%d", name, got.Rows, got.Cols, want.Rows, want.Cols)
	}
	for i := range want.Data {
		if got.Data[i] != want.Data[i] {
			t.Fatalf("%s: element %d = %v, want %v (diff %g)", name, i, got.Data[i], want.Data[i], got.Data[i]-want.Data[i])
		}
	}
}

// withWorkerBudget runs fn under a temporary global compute budget.
func withWorkerBudget(t *testing.T, n int, fn func()) {
	t.Helper()
	old := WorkerBudget()
	SetWorkerBudget(n)
	defer SetWorkerBudget(old)
	fn()
}

// TestMatMulParallelSerialParity checks that all three matmul kernels are
// bit-identical to a naive serial reference both below and above
// parallelThreshold, and under different worker budgets (budget 1 forces a
// single inline sweep; larger budgets shard rows across goroutines).
func TestMatMulParallelSerialParity(t *testing.T) {
	// 80×64 × 64×64 is 327680 multiply-adds — above parallelThreshold
	// (262144) — while 20×16 × 16×8 stays far below it.
	shapes := []struct {
		m, k, n int
	}{
		{1, 7, 5},
		{20, 16, 8},
		{33, 11, 17}, // odd sizes exercise uneven chunking
		{80, 64, 64},
		{129, 64, 48},
	}
	for _, budgetSlots := range []int{1, 3, 8} {
		withWorkerBudget(t, budgetSlots, func() {
			for si, sh := range shapes {
				seed := uint64(si + 1)
				a := randTestMat(sh.m, sh.k, seed)
				b := randTestMat(sh.k, sh.n, seed+100)
				matsExactlyEqual(t, "MatMul", mul(a, b), naiveMatMul(a, b))

				at := randTestMat(sh.k, sh.m, seed+200) // aᵀ×b: shared dim is Rows
				bt := randTestMat(sh.k, sh.n, seed+300)
				matsExactlyEqual(t, "MatMulATB", mulATB(at, bt), naiveMatMulATB(at, bt))

				aa := randTestMat(sh.m, sh.k, seed+400) // a×bᵀ: shared dim is Cols
				bb := randTestMat(sh.n, sh.k, seed+500)
				matsExactlyEqual(t, "MatMulABT", mulABT(aa, bb), naiveMatMulABT(aa, bb))
			}
		})
	}
}

// TestMatMulIntoReusesBuffer checks the Into variants fully overwrite a
// dirty destination and match the naive references.
func TestMatMulIntoReusesBuffer(t *testing.T) {
	a := randTestMat(9, 13, 1)
	b := randTestMat(13, 6, 2)
	dirty := func(rows, cols int) *Matrix {
		m := NewMatrix(rows, cols)
		for i := range m.Data {
			m.Data[i] = math.NaN()
		}
		return m
	}
	matsExactlyEqual(t, "MatMulInto", MatMulInto(dirty(9, 6), a, b), naiveMatMul(a, b))

	x := randTestMat(13, 9, 3)
	matsExactlyEqual(t, "MatMulATBInto", MatMulATBInto(dirty(9, 6), x, b), naiveMatMulATB(x, b))

	y := randTestMat(6, 13, 4)
	matsExactlyEqual(t, "MatMulABTInto", MatMulABTInto(dirty(9, 6), a, y), naiveMatMulABT(a, y))
}

// newParityNet builds a small AE-shaped network (Dense→BatchNorm→ReLU→
// Dense→Sigmoid) deterministically from seed.
func newParityNet(seed uint64) *Network {
	rng := mathx.NewRNG(seed)
	return NewNetwork(
		NewDense(12, 8, rng),
		NewBatchNorm(8),
		NewActivation(ActReLU),
		NewDense(8, 12, rng),
		NewActivation(ActSigmoid),
	)
}

// TestWorkspaceForwardBackwardParity checks that the workspace-backed
// forward/backward produce bit-identical activations and parameter
// gradients to the test-file driver (refForward/refBackward: the same
// layer calls into fresh buffers) on an identically initialized network.
// The workspace never computes the gradient w.r.t. the network input, so
// the driver's is checked against the reference product of the gradient
// reaching layer 0 and its weight.
func TestWorkspaceForwardBackwardParity(t *testing.T) {
	withWorkerBudget(t, 4, func() {
		ref := newParityNet(42)
		wsNet := newParityNet(42)
		ws := wsNet.NewWorkspace()
		x := randTestMat(16, 12, 7)
		target := randTestMat(16, 12, 8)

		for step := 0; step < 3; step++ { // repeat to exercise buffer reuse
			zeroGrads(ref)
			predR, inputs := refForward(ref, x)
			lossR, gradR := mse(predR, target)
			dxR := refBackward(ref, inputs, gradR)

			for _, p := range ws.params {
				p.ZeroGrad()
			}
			predW := wsNet.forwardWS(ws, x)
			lossW := MSEInto(predW, target, ws.lossGrad.Reshape(predW.Rows, predW.Cols))
			wsNet.backwardWS(ws)

			if lossR != lossW {
				t.Fatalf("step %d: loss %v vs %v", step, lossR, lossW)
			}
			matsExactlyEqual(t, "pred", predW, predR)
			matsExactlyEqual(t, "dx", dxR, naiveMatMulABT(ws.grads[1], wsNet.Layers[0].(*Dense).W.Value))
			pr, pw := ref.Params(), wsNet.Params()
			for i := range pr {
				matsExactlyEqual(t, fmt.Sprintf("grad of param %d", i), pw[i].Grad, pr[i].Grad)
			}
		}
	})
}

// fitReference replicates Fit through the test-file driver: fresh
// matrices for every batch of every epoch, the same shuffle, loss and
// Adadelta step. It is the parity oracle for Fit's workspace.
func fitReference(n *Network, inputs, targets *Matrix, cfg TrainConfig) float64 {
	rng := cfg.RNG
	opt := NewAdadelta()
	order := make([]int, inputs.Rows)
	for i := range order {
		order[i] = i
	}
	var lastLoss float64
	for epoch := 0; epoch < cfg.Epochs; epoch++ {
		mathx.Shuffle(rng, order)
		var epochLoss float64
		var batches int
		for start := 0; start < len(order); start += cfg.BatchSize {
			end := start + cfg.BatchSize
			if end > len(order) {
				end = len(order)
			}
			gather := func(m *Matrix) *Matrix {
				out := NewMatrix(end-start, m.Cols)
				for i, r := range order[start:end] {
					copy(out.Row(i), m.Row(r))
				}
				return out
			}
			bx, bt := gather(inputs), gather(targets)
			zeroGrads(n)
			pred, layerInputs := refForward(n, bx)
			loss, grad := mse(pred, bt)
			refBackward(n, layerInputs, grad)
			opt.Step(n.Params())
			epochLoss += loss
			batches++
		}
		lastLoss = epochLoss / float64(batches)
	}
	return lastLoss
}

// TestFitWorkspaceMatchesAllocating trains two identically seeded networks
// — one through the workspace Fit, one through fitReference — and requires
// bit-identical losses and final weights, then bit-identical scores from
// the fused plan and from the scalar inference reference.
func TestFitWorkspaceMatchesAllocating(t *testing.T) {
	withWorkerBudget(t, 4, func() {
		inputs := randTestMat(70, 12, 11) // odd tail batch at size 32
		ref := newParityNet(5)
		refLoss := fitReference(ref, inputs, inputs, TrainConfig{
			Epochs: 4, BatchSize: 32, RNG: mathx.NewRNG(99),
		})

		ws := newParityNet(5)
		wsLoss, err := ws.Fit(inputs, inputs, TrainConfig{
			Epochs: 4, BatchSize: 32, RNG: mathx.NewRNG(99),
		})
		if err != nil {
			t.Fatal(err)
		}
		if refLoss != wsLoss {
			t.Fatalf("final loss %v (workspace) vs %v (reference)", wsLoss, refLoss)
		}
		pr, pw := ref.Params(), ws.Params()
		for i := range pr {
			matsExactlyEqual(t, fmt.Sprintf("param %d", i), pw[i].Value, pr[i].Value)
		}

		// Inference parity on the trained models, fused plan vs scalar
		// reference.
		probe := randTestMat(600, 12, 13) // spans two 512-row chunks
		a := rowMSE(refInfer(ref, probe), probe)
		b := ws.ReconstructionErrorsWS(ws.NewWorkspace(), probe, nil)
		if len(a) != len(b) {
			t.Fatalf("score lengths %d vs %d", len(a), len(b))
		}
		for i := range a {
			if a[i] != b[i] {
				t.Fatalf("score %d: %v vs %v", i, a[i], b[i])
			}
		}
	})
}

// newRefereeNet builds the autoencoder the referee retrains for a
// 140-wide aspect: 140-64-32-64-140 with BatchNorm and ReLU after every
// hidden Dense and a sigmoid output.
func newRefereeNet(seed uint64) *Network {
	rng := mathx.NewRNG(seed)
	return NewNetwork(
		NewDense(140, 64, rng), NewBatchNorm(64), NewActivation(ActReLU),
		NewDense(64, 32, rng), NewBatchNorm(32), NewActivation(ActReLU),
		NewDense(32, 64, rng), NewBatchNorm(64), NewActivation(ActReLU),
		NewDense(64, 140, rng), NewActivation(ActSigmoid),
	)
}

// TestTrainStepSteadyStateAllocs verifies the headline property: after
// warm-up, a training step at worker budget 1 performs zero heap
// allocations — on a toy net that stays on the small kernels and at the
// referee's shape, whose products take the blocked and (above
// parallelThreshold) the sharding dispatch.
func TestTrainStepSteadyStateAllocs(t *testing.T) {
	for _, tc := range []struct {
		name string
		net  *Network
		bx   *Matrix
	}{
		{"toy_12-8-12", newParityNet(3), randTestMat(32, 12, 4)},
		{"referee_140-64-32-64-140", newRefereeNet(3), randTestMat(64, 140, 4)},
	} {
		t.Run(tc.name, func(t *testing.T) {
			withWorkerBudget(t, 1, func() {
				ws := tc.net.NewWorkspace()
				opt := NewAdadelta()
				tc.net.TrainStep(ws, tc.bx, tc.bx, opt) // warm buffers and Adadelta accumulators
				allocs := testing.AllocsPerRun(20, func() {
					tc.net.TrainStep(ws, tc.bx, tc.bx, opt)
				})
				if allocs > 0 {
					t.Errorf("TrainStep allocates %.1f objects per run, want 0", allocs)
				}
			})
		})
	}
}

// TestWorkerBudget sanity-checks the semaphore: acquire/release restores
// slots, try-acquire fails only at the limit, and a floor of 1 holds.
func TestWorkerBudget(t *testing.T) {
	old := WorkerBudget()
	defer SetWorkerBudget(old)

	SetWorkerBudget(2)
	if got := WorkerBudget(); got != 2 {
		t.Fatalf("budget %d, want 2", got)
	}
	AcquireWorker()
	if !tryAcquireWorker() {
		t.Fatal("second slot should be free")
	}
	if tryAcquireWorker() {
		t.Fatal("third acquire should fail at budget 2")
	}
	ReleaseWorker()
	ReleaseWorker()
	if !tryAcquireWorker() {
		t.Fatal("slot should be free after releases")
	}
	ReleaseWorker()

	SetWorkerBudget(0)
	if got := WorkerBudget(); got != 1 {
		t.Fatalf("budget floor %d, want 1", got)
	}
}
