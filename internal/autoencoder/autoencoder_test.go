package autoencoder

import (
	"bytes"
	"context"
	"fmt"
	"strings"
	"testing"

	"acobe/internal/mathx"
	"acobe/internal/nn"
)

// manifoldSamples draws points from a 2-D manifold embedded in dim
// dimensions, scaled into [0, 1] to match the sigmoid output.
func manifoldSamples(rng *mathx.RNG, n, dim int) *nn.Matrix {
	rows := make([][]float64, n)
	for i := range rows {
		a, b := rng.Float64(), rng.Float64()
		row := make([]float64, dim)
		for j := range row {
			switch j % 3 {
			case 0:
				row[j] = a
			case 1:
				row[j] = b
			default:
				row[j] = (a + b) / 2
			}
		}
		rows[i] = row
	}
	return nn.FromRows(rows)
}

func testConfig(dim int) Config {
	cfg := FastConfig(dim)
	cfg.Hidden = []int{16, 8}
	cfg.Epochs = 30
	return cfg
}

func TestNewValidation(t *testing.T) {
	if _, err := New(Config{InputDim: 0, Hidden: []int{4}}); err == nil {
		t.Error("no error for zero input dim")
	}
	if _, err := New(Config{InputDim: 4}); err == nil {
		t.Error("no error for missing hidden layers")
	}
}

func TestArchitectureMirrors(t *testing.T) {
	ae, err := New(Config{InputDim: 10, Hidden: []int{8, 4}, BatchNorm: true, FinalSigmoid: true, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	want := "Dense(10→8) → BatchNorm(8) → relu → Dense(8→4) → BatchNorm(4) → relu → " +
		"Dense(4→8) → BatchNorm(8) → relu → Dense(8→10) → sigmoid"
	if got := describe(ae.net); got != want {
		t.Errorf("architecture %q\nwant %q", got, want)
	}
}

// describe returns a one-line summary of the network's layers.
func describe(net *nn.Network) string {
	parts := make([]string, len(net.Layers))
	for i, l := range net.Layers {
		switch l := l.(type) {
		case *nn.Dense:
			parts[i] = fmt.Sprintf("Dense(%d→%d)", l.In, l.Out)
		case *nn.BatchNorm:
			parts[i] = fmt.Sprintf("BatchNorm(%d)", l.Dim)
		case *nn.ActivationLayer:
			parts[i] = l.Kind.String()
		}
	}
	return strings.Join(parts, " → ")
}

func TestAnomalyScoresSeparate(t *testing.T) {
	rng := mathx.NewRNG(1)
	const dim = 12
	train := manifoldSamples(rng, 512, dim)

	ae, err := New(testConfig(dim))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := ae.Fit(context.Background(), train); err != nil {
		t.Fatal(err)
	}

	normal := manifoldSamples(mathx.NewRNG(2), 64, dim)
	normalScores, err := ae.NewScorer().ScoreBatch(normal, nil)
	if err != nil {
		t.Fatal(err)
	}

	// Anomalies: break the manifold constraint (random independent dims).
	anomRows := make([][]float64, 64)
	arng := mathx.NewRNG(3)
	for i := range anomRows {
		row := make([]float64, dim)
		for j := range row {
			row[j] = arng.Float64()
		}
		anomRows[i] = row
	}
	anomScores, err := ae.NewScorer().ScoreBatch(nn.FromRows(anomRows), nil)
	if err != nil {
		t.Fatal(err)
	}

	normalP95 := mathx.Percentile(normalScores, 95)
	anomMedian := mathx.Percentile(anomScores, 50)
	if anomMedian <= normalP95 {
		t.Errorf("anomaly median %.5f not above normal p95 %.5f", anomMedian, normalP95)
	}
}

func TestScoresDimensionMismatch(t *testing.T) {
	ae, err := New(testConfig(8))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := ae.NewScorer().ScoreBatch(nn.NewMatrix(2, 5), nil); err == nil {
		t.Error("no error for wrong batch width")
	}
	if _, err := ae.Fit(context.Background(), nn.NewMatrix(2, 5)); err == nil {
		t.Error("no error for wrong training width")
	}
}

func TestScoreSingle(t *testing.T) {
	rng := mathx.NewRNG(4)
	ae, err := New(testConfig(6))
	if err != nil {
		t.Fatal(err)
	}
	train := manifoldSamples(rng, 128, 6)
	if _, err := ae.Fit(context.Background(), train); err != nil {
		t.Fatal(err)
	}
	scorer := ae.NewScorer()
	one, err := scorer.ScoreBatch(&nn.Matrix{Rows: 1, Cols: 6, Data: train.Row(0)}, nil)
	if err != nil {
		t.Fatal(err)
	}
	all, err := scorer.ScoreBatch(train, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(one) != 1 || one[0] < 0 || one[0] != all[0] {
		t.Errorf("one-row score %v, want one non-negative score equal to the batch's %g", one, all[0])
	}
}

func TestSaveLoadPreservesScores(t *testing.T) {
	rng := mathx.NewRNG(5)
	cfg := testConfig(8)
	ae, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	train := manifoldSamples(rng, 128, 8)
	if _, err := ae.Fit(context.Background(), train); err != nil {
		t.Fatal(err)
	}

	var buf bytes.Buffer
	if err := ae.Save(&buf); err != nil {
		t.Fatal(err)
	}
	loaded, err := Load(&buf, cfg)
	if err != nil {
		t.Fatal(err)
	}
	probe := manifoldSamples(mathx.NewRNG(6), 16, 8)
	a, err := ae.NewScorer().ScoreBatch(probe, nil)
	if err != nil {
		t.Fatal(err)
	}
	b, err := loaded.NewScorer().ScoreBatch(probe, nil)
	if err != nil {
		t.Fatal(err)
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("score %d differs after reload: %g vs %g", i, a[i], b[i])
		}
	}
}

// TestLoadRefusesMalformedModels saves networks no constructor builds
// (nn.Network literals skip NewNetwork's layout check) and requires Load
// to refuse each, naming the layer at fault where there is one.
func TestLoadRefusesMalformedModels(t *testing.T) {
	rng := mathx.NewRNG(8)
	dense := func(in, out, weights int) *nn.Dense {
		return &nn.Dense{In: in, Out: out,
			W: &nn.Param{Value: &nn.Matrix{Rows: 1, Cols: weights, Data: make([]float64, weights)}},
			B: &nn.Param{Value: nn.NewMatrix(1, out)}}
	}
	shortStats := nn.NewBatchNorm(8)
	shortStats.MovingMean = nn.NewMatrix(1, 4)
	shortStats.MovingVar = nn.NewMatrix(1, 4)
	for _, tc := range []struct {
		name   string
		layers []nn.Layer
		want   string
	}{
		{"input width", []nn.Layer{nn.NewDense(10, 4, rng), nn.NewDense(4, 10, rng)}, "maps 10 features to 10, config expects 20"},
		{"dense chain", []nn.Layer{nn.NewDense(20, 8, rng), nn.NewDense(6, 20, rng)}, "layer 1: dense takes 6 inputs"},
		{"no layers", nil, "no layers"},
		{"unknown activation", []nn.Layer{nn.NewDense(20, 20, rng), nn.NewActivation(99)}, "layer 1: unknown activation(99)"},
		{"short moving statistics", []nn.Layer{nn.NewDense(20, 8, rng), shortStats, nn.NewDense(8, 20, rng)}, "layer 1: batchnorm over 8 features holds 8 γ, 8 β, 4 moving means"},
		{"non-positive width", []nn.Layer{dense(20, 0, 0), nn.NewDense(20, 20, rng)}, "layer 0: dense 20→0 has a non-positive width"},
		{"weights overflow", []nn.Layer{nn.NewDense(20, 4, rng), dense(1<<62+1, 4, 4)}, "layer 1: dense 4611686018427387905→4 holds 4 weights"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			var buf bytes.Buffer
			if err := (&nn.Network{Layers: tc.layers}).Save(&buf); err != nil {
				t.Fatal(err)
			}
			_, err := Load(&buf, testConfig(20))
			if err == nil || !strings.Contains(err.Error(), tc.want) {
				t.Errorf("Load error %v, want one containing %q", err, tc.want)
			}
		})
	}
}

func TestDeterministicTraining(t *testing.T) {
	build := func() float64 {
		ae, err := New(testConfig(6))
		if err != nil {
			t.Fatal(err)
		}
		loss, err := ae.Fit(context.Background(), manifoldSamples(mathx.NewRNG(7), 128, 6))
		if err != nil {
			t.Fatal(err)
		}
		return loss
	}
	if a, b := build(), build(); a != b {
		t.Errorf("training not deterministic: %g vs %g", a, b)
	}
}

func TestPaperConfigShape(t *testing.T) {
	cfg := PaperConfig(392)
	if len(cfg.Hidden) != 4 || cfg.Hidden[0] != 512 || cfg.Hidden[3] != 64 {
		t.Errorf("paper hidden sizes %v", cfg.Hidden)
	}
	if !cfg.BatchNorm || !cfg.FinalSigmoid {
		t.Error("paper config must enable batch norm and sigmoid output")
	}
}
