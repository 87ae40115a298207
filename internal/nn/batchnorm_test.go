package nn

import (
	"math"
	"testing"

	"acobe/internal/mathx"
)

func TestBatchNormTrainingNormalizes(t *testing.T) {
	bn := NewBatchNorm(3)
	rng := mathx.NewRNG(1)
	x := NewMatrix(64, 3)
	for i := 0; i < x.Rows; i++ {
		copy(x.Row(i), []float64{rng.Normal(10, 2), rng.Normal(-5, 0.5), rng.Normal(0, 1)})
	}
	y := NewMatrix(64, 3)
	bn.ForwardInto(x, y)
	for j := 0; j < 3; j++ {
		col := make([]float64, y.Rows)
		for i := range col {
			col[i] = y.Row(i)[j]
		}
		mean, std := mathx.MeanStd(col)
		if math.Abs(mean) > 1e-9 {
			t.Errorf("feature %d mean %g after batchnorm", j, mean)
		}
		if math.Abs(std-1) > 0.01 {
			t.Errorf("feature %d std %g after batchnorm", j, std)
		}
	}
}

func TestBatchNormInferenceUsesMovingStats(t *testing.T) {
	bn := NewBatchNorm(1)
	rng := mathx.NewRNG(2)
	// Feed many batches so moving stats converge toward N(4, 3).
	for e := 0; e < 600; e++ {
		x := NewMatrix(32, 1)
		for i := range x.Data {
			x.Data[i] = rng.Normal(4, 3)
		}
		bn.ForwardInto(x, NewMatrix(32, 1))
	}
	if math.Abs(bn.MovingMean.Data[0]-4) > 0.5 {
		t.Errorf("moving mean %g, want ≈ 4", bn.MovingMean.Data[0])
	}
	if math.Abs(bn.MovingVar.Data[0]-9) > 2 {
		t.Errorf("moving var %g, want ≈ 9", bn.MovingVar.Data[0])
	}
	// Inference on the distribution mean should land near zero. The
	// identity dense in front gives the network its Dense-first layout.
	id := &Dense{In: 1, Out: 1, W: newParam(FromRows([][]float64{{1}})), B: newParam(NewMatrix(1, 1))}
	net := NewNetwork(id, bn)
	y := net.ForwardBatchInto(net.NewWorkspace(), FromRows([][]float64{{4}}))
	if math.Abs(y.Data[0]) > 0.2 {
		t.Errorf("inference output %g, want ≈ 0", y.Data[0])
	}
}

func TestBatchNormSingleSampleUsesMovingStats(t *testing.T) {
	bn := NewBatchNorm(1)
	// One-sample "training" batch must not divide by zero variance.
	y := NewMatrix(1, 1)
	bn.ForwardInto(FromRows([][]float64{{5}}), y)
	if math.IsNaN(y.Data[0]) || math.IsInf(y.Data[0], 0) {
		t.Errorf("single-sample forward produced %g", y.Data[0])
	}
}

func TestBatchNormGradientCheck(t *testing.T) {
	rng := mathx.NewRNG(3)
	net := NewNetwork(
		NewDense(3, 4, rng),
		NewBatchNorm(4),
		NewActivation(ActSigmoid),
		NewDense(4, 2, rng),
	)
	x := randomMatrix(rng, 6, 3)
	target := randomMatrix(rng, 6, 2)

	// Gradient checking with batch norm: the analytic gradient assumes
	// fixed batch statistics while finite differences perturb them, so a
	// looser tolerance is expected — but the direction must agree.
	zeroGrads(net)
	pred, inputs := refForward(net, x)
	_, grad := mse(pred, target)
	refBackward(net, inputs, grad)

	const h = 1e-5
	checked, agree := 0, 0
	for _, p := range net.Params() {
		for i := range p.Value.Data {
			analytic := p.Grad.Data[i]
			if math.Abs(analytic) < 1e-8 {
				continue
			}
			orig := p.Value.Data[i]
			p.Value.Data[i] = orig + h
			predPlus, _ := refForward(net, x)
			lossPlus, _ := mse(predPlus, target)
			p.Value.Data[i] = orig - h
			predMinus, _ := refForward(net, x)
			lossMinus, _ := mse(predMinus, target)
			p.Value.Data[i] = orig
			numeric := (lossPlus - lossMinus) / (2 * h)
			checked++
			if math.Abs(numeric-analytic) < 1e-3*(1+math.Abs(numeric)) {
				agree++
			}
		}
	}
	if checked == 0 {
		t.Fatal("no gradients checked")
	}
	if frac := float64(agree) / float64(checked); frac < 0.95 {
		t.Errorf("only %.0f%% of %d gradients match finite differences", frac*100, checked)
	}
}

func TestBatchNormBackwardBeforeForwardPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("no panic on BackwardInto before ForwardInto")
		}
	}()
	NewBatchNorm(2).BackwardInto(NewMatrix(1, 2), NewMatrix(1, 2))
}

func TestBatchNormShapePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("no panic on feature mismatch")
		}
	}()
	NewBatchNorm(2).ForwardInto(NewMatrix(4, 3), NewMatrix(4, 3))
}
