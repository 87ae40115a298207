package nn

import (
	"bytes"
	"math"
	"testing"

	"acobe/internal/mathx"
)

func TestMSEKnown(t *testing.T) {
	pred := FromRows([][]float64{{1, 2}})
	target := FromRows([][]float64{{0, 4}})
	grad := NewMatrix(1, 2)
	loss := MSEInto(pred, target, grad)
	if math.Abs(loss-2.5) > 1e-12 { // (1 + 4) / 2
		t.Errorf("loss = %g, want 2.5", loss)
	}
	// grad = 2(d)/n: [2*1/2, 2*(-2)/2] = [1, -2]
	if grad.Data[0] != 1 || grad.Data[1] != -2 {
		t.Errorf("grad = %v", grad.Data)
	}
}

// TestPerSampleMSE checks the per-row reduction of ReconstructionErrorsWS
// on a network that doubles its input, so each row's error is the mean of
// its squares.
func TestPerSampleMSE(t *testing.T) {
	double := &Dense{In: 2, Out: 2, W: newParam(FromRows([][]float64{{2, 0}, {0, 2}})), B: newParam(NewMatrix(1, 2))}
	net := NewNetwork(double)
	x := FromRows([][]float64{{1, 1}, {2, 0}, {0, 0}})
	got := net.ReconstructionErrorsWS(net.NewWorkspace(), x, nil)
	if len(got) != 3 || got[0] != 1 || got[1] != 2 || got[2] != 0 {
		t.Errorf("per-sample errors %v, want [1 2 0]", got)
	}
}

func TestFitLearnsIdentity(t *testing.T) {
	rng := mathx.NewRNG(1)
	net := NewNetwork(
		NewDense(4, 8, rng),
		NewActivation(ActSigmoid),
		NewDense(8, 4, rng),
	)
	// Inputs on a 1-D manifold: x = [t, 2t, -t, t²] for t ∈ [0, 1].
	rows := make([][]float64, 256)
	for i := range rows {
		tv := rng.Float64()
		rows[i] = []float64{tv, 2 * tv, -tv, tv * tv}
	}
	x := FromRows(rows)
	loss, err := net.Fit(x, x, TrainConfig{
		Epochs: 200, BatchSize: 32, RNG: mathx.NewRNG(2),
	})
	if err != nil {
		t.Fatal(err)
	}
	if loss > 0.001 {
		t.Errorf("final loss %g, want < 0.001", loss)
	}
}

func TestFitErrors(t *testing.T) {
	rng := mathx.NewRNG(3)
	net := NewNetwork(NewDense(2, 2, rng))
	if _, err := net.Fit(NewMatrix(0, 2), NewMatrix(0, 2), TrainConfig{}); err == nil {
		t.Error("no error for empty training set")
	}
	if _, err := net.Fit(NewMatrix(3, 2), NewMatrix(2, 2), TrainConfig{}); err == nil {
		t.Error("no error for sample-count mismatch")
	}
}

func TestEarlyStopping(t *testing.T) {
	rng := mathx.NewRNG(4)
	net := NewNetwork(NewDense(2, 2, rng))
	x := randomMatrix(rng, 32, 2)
	epochs := 0
	_, err := net.Fit(x, x, TrainConfig{
		Epochs:         500,
		BatchSize:      32,
		EarlyStopDelta: 0.01,
		Patience:       2,
		Verbose:        func(int, float64) { epochs++ },
	})
	if err != nil {
		t.Fatal(err)
	}
	if epochs >= 500 {
		t.Errorf("early stopping never fired (%d epochs)", epochs)
	}
}

func TestReconstructionErrorsChunking(t *testing.T) {
	rng := mathx.NewRNG(5)
	net := NewNetwork(NewDense(3, 3, rng))
	// More rows than the internal chunk size to cover the chunk loop.
	x := randomMatrix(rng, 1100, 3)
	errsChunked := net.ReconstructionErrorsWS(net.NewWorkspace(), x, nil)
	direct := rowMSE(refInfer(net, x), x)
	if len(errsChunked) != len(direct) {
		t.Fatalf("length mismatch %d vs %d", len(errsChunked), len(direct))
	}
	for i := range direct {
		if math.Float64bits(errsChunked[i]) != math.Float64bits(direct[i]) {
			t.Fatalf("row %d: chunked %g vs direct %g", i, errsChunked[i], direct[i])
		}
	}
}

func TestSaveLoadRoundTrip(t *testing.T) {
	rng := mathx.NewRNG(7)
	net := NewNetwork(
		NewDense(4, 6, rng),
		NewBatchNorm(6),
		NewActivation(ActReLU),
		NewDense(6, 4, rng),
		NewActivation(ActSigmoid),
	)
	// Train briefly so BatchNorm moving stats are non-trivial.
	x := randomMatrix(rng, 64, 4)
	if _, err := net.Fit(x, x, TrainConfig{Epochs: 3, BatchSize: 16}); err != nil {
		t.Fatal(err)
	}

	var buf bytes.Buffer
	if err := net.Save(&buf); err != nil {
		t.Fatal(err)
	}
	loaded, err := Load(&buf)
	if err != nil {
		t.Fatal(err)
	}

	probe := randomMatrix(rng, 8, 4)
	want := net.ForwardBatchInto(net.NewWorkspace(), probe)
	got := loaded.ForwardBatchInto(loaded.NewWorkspace(), probe)
	matricesIdentical(t, "loaded network's prediction", got, want)
}

func TestLoadRejectsGarbage(t *testing.T) {
	if _, err := Load(bytes.NewReader([]byte("not a gob"))); err == nil {
		t.Error("no error decoding garbage")
	}
}

func TestFitDeterminism(t *testing.T) {
	build := func() float64 {
		rng := mathx.NewRNG(10)
		net := NewNetwork(NewDense(3, 5, rng), NewActivation(ActSigmoid), NewDense(5, 3, rng))
		x := randomMatrix(mathx.NewRNG(11), 64, 3)
		loss, err := net.Fit(x, x, TrainConfig{Epochs: 5, BatchSize: 16, RNG: mathx.NewRNG(12)})
		if err != nil {
			t.Fatal(err)
		}
		return loss
	}
	if a, b := build(), build(); a != b {
		t.Errorf("training not deterministic: %g vs %g", a, b)
	}
}

func TestFitHandlesSingleSampleTailBatch(t *testing.T) {
	// 33 samples with batch size 32 leaves a final batch of one row;
	// BatchNorm must fall back to moving statistics instead of dividing
	// by a zero batch variance.
	rng := mathx.NewRNG(20)
	net := NewNetwork(
		NewDense(4, 6, rng),
		NewBatchNorm(6),
		NewActivation(ActReLU),
		NewDense(6, 4, rng),
	)
	x := randomMatrix(rng, 33, 4)
	loss, err := net.Fit(x, x, TrainConfig{Epochs: 3, BatchSize: 32})
	if err != nil {
		t.Fatal(err)
	}
	if math.IsNaN(loss) || math.IsInf(loss, 0) {
		t.Fatalf("loss = %g", loss)
	}
	for pi, p := range net.Params() {
		for i, v := range p.Value.Data {
			if math.IsNaN(v) || math.IsInf(v, 0) {
				t.Fatalf("param %d[%d] = %g", pi, i, v)
			}
		}
	}
}
