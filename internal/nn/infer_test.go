package nn

import (
	"math"
	"strings"
	"testing"

	"acobe/internal/mathx"
)

// TestForwardBatchMatchesForward pins the fused inference path to the
// scalar layer-by-layer reference (refInfer) bit-for-bit, on a trained
// Dense+BatchNorm+ReLU stack (so the moving statistics are non-trivial)
// across batch sizes including 1, 7, a prime, and a multi-chunk size.
func TestForwardBatchMatchesForward(t *testing.T) {
	rng := mathx.NewRNG(11)
	net := NewNetwork(
		NewDense(20, 12, rng),
		NewBatchNorm(12),
		NewActivation(ActReLU),
		NewDense(12, 20, rng),
		NewActivation(ActSigmoid),
	)
	train := randomMatrix(rng, 64, 20)
	if _, err := net.Fit(train, train, TrainConfig{Epochs: 3, BatchSize: 16, RNG: mathx.NewRNG(12)}); err != nil {
		t.Fatal(err)
	}

	ws := net.NewWorkspace()
	for _, rows := range []int{1, 7, 31, 64, 513} {
		x := randomMatrix(rng, rows, 20)
		want := refInfer(net, x)
		got := net.ForwardBatchInto(ws, x)
		if got.Rows != want.Rows || got.Cols != want.Cols {
			t.Fatalf("rows=%d: shape %dx%d, want %dx%d", rows, got.Rows, got.Cols, want.Rows, want.Cols)
		}
		for i := range want.Data {
			if math.Float64bits(got.Data[i]) != math.Float64bits(want.Data[i]) {
				t.Fatalf("rows=%d: element %d = %x, want %x", rows, i,
					math.Float64bits(got.Data[i]), math.Float64bits(want.Data[i]))
			}
		}
	}
}

// TestNewNetworkRefusesBadLayout checks that NewNetwork accepts only
// (Dense [BatchNorm] [Activation])+ with chaining widths, so the inference
// plan never meets a layer it cannot fuse.
func TestNewNetworkRefusesBadLayout(t *testing.T) {
	rng := mathx.NewRNG(21)
	for _, tc := range []struct {
		name   string
		layers []Layer
		want   string
	}{
		{"empty", nil, "no layers"},
		{"leading batchnorm", []Layer{NewBatchNorm(10), NewDense(10, 6, rng)}, "layer 0:"},
		{"two activations", []Layer{NewDense(10, 6, rng), NewActivation(ActReLU), NewActivation(ActSigmoid)}, "layer 2:"},
		{"batchnorm after activation", []Layer{NewDense(10, 6, rng), NewActivation(ActReLU), NewBatchNorm(6)}, "layer 2:"},
		{"batchnorm width", []Layer{NewDense(10, 6, rng), NewBatchNorm(5)}, "layer 1:"},
		{"dense chain", []Layer{NewDense(10, 6, rng), NewDense(5, 10, rng)}, "layer 1:"},
		{"unknown activation", []Layer{NewDense(10, 6, rng), NewActivation(99)}, "layer 1:"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			defer func() {
				r := recover()
				if err, ok := r.(error); !ok || !strings.Contains(err.Error(), tc.want) {
					t.Errorf("NewNetwork panicked with %v, want an error naming %q", r, tc.want)
				}
			}()
			NewNetwork(tc.layers...)
		})
	}
}

// TestReconstructionErrorsBatchSizes checks ReconstructionErrorsWS (now
// routed through the fused batched forward) against per-row scoring at
// awkward batch sizes, bit-for-bit.
func TestReconstructionErrorsBatchSizes(t *testing.T) {
	rng := mathx.NewRNG(31)
	net := NewNetwork(
		NewDense(16, 8, rng),
		NewBatchNorm(8),
		NewActivation(ActReLU),
		NewDense(8, 16, rng),
		NewActivation(ActSigmoid),
	)
	train := randomMatrix(rng, 48, 16)
	if _, err := net.Fit(train, train, TrainConfig{Epochs: 2, BatchSize: 16, RNG: mathx.NewRNG(32)}); err != nil {
		t.Fatal(err)
	}
	ws := net.NewWorkspace()
	rowWS := net.NewWorkspace()
	for _, rows := range []int{1, 7, 13, 600} {
		x := randomMatrix(rng, rows, 16)
		batched := net.ReconstructionErrorsWS(ws, x, nil)
		for i := 0; i < rows; i++ {
			row := &Matrix{Rows: 1, Cols: 16, Data: x.Row(i)}
			single := net.ReconstructionErrorsWS(rowWS, row, nil)
			if math.Float64bits(batched[i]) != math.Float64bits(single[0]) {
				t.Fatalf("rows=%d: score %d = %x, want %x", rows, i,
					math.Float64bits(batched[i]), math.Float64bits(single[0]))
			}
		}
	}
}
