// Package autoencoder builds the deep fully-connected autoencoders the
// paper uses: a mirrored encoder/decoder stack of Dense+ReLU layers with
// BatchNorm between layers, trained by Adadelta against MSE loss. The
// anomaly score of a sample is its reconstruction error.
package autoencoder

import (
	"context"
	"errors"
	"fmt"
	"io"

	"acobe/internal/mathx"
	"acobe/internal/nn"
)

// Config describes an autoencoder architecture and training setup.
type Config struct {
	// InputDim is the flattened width of a compound behavioral deviation
	// matrix.
	InputDim int
	// Hidden lists encoder layer widths, outermost first. The paper uses
	// [512, 256, 128, 64]; the decoder mirrors it automatically.
	Hidden []int
	// BatchNorm inserts batch normalization between layers (paper: on).
	BatchNorm bool
	// Epochs, BatchSize drive training.
	Epochs    int
	BatchSize int
	// Seed makes weight initialization and shuffling deterministic.
	Seed uint64
	// FinalSigmoid appends a sigmoid output layer, matching inputs
	// transformed into [0,1] (the paper maps deviations from [-Δ,Δ] to
	// [0,1] before feeding the model).
	FinalSigmoid bool
	// EarlyStopDelta/Patience forward to the nn trainer. Zero disables.
	EarlyStopDelta float64
	Patience       int
}

// PaperConfig returns the architecture used in the paper's evaluation:
// encoder 512-256-128-64 with batch norm, Adadelta, sigmoid output.
func PaperConfig(inputDim int) Config {
	return Config{
		InputDim:     inputDim,
		Hidden:       []int{512, 256, 128, 64},
		BatchNorm:    true,
		Epochs:       30,
		BatchSize:    64,
		Seed:         1,
		FinalSigmoid: true,
	}
}

// FastConfig returns a reduced architecture that preserves the paper's
// shape (4 mirrored layers, batch norm, Adadelta) at a fraction of the
// cost; used by tests and benchmarks.
func FastConfig(inputDim int) Config {
	return Config{
		InputDim:     inputDim,
		Hidden:       []int{128, 64, 32, 16},
		BatchNorm:    true,
		Epochs:       15,
		BatchSize:    64,
		Seed:         1,
		FinalSigmoid: true,
	}
}

// Autoencoder is a trained (or trainable) reconstruction model.
type Autoencoder struct {
	cfg Config
	net *nn.Network
}

// New builds an untrained autoencoder from cfg.
func New(cfg Config) (*Autoencoder, error) {
	if cfg.InputDim <= 0 {
		return nil, fmt.Errorf("autoencoder: input dim must be positive, got %d", cfg.InputDim)
	}
	if len(cfg.Hidden) == 0 {
		return nil, errors.New("autoencoder: at least one hidden layer required")
	}
	rng := mathx.NewRNG(cfg.Seed)
	var layers []nn.Layer

	dims := append([]int{cfg.InputDim}, cfg.Hidden...)
	// Encoder.
	for i := 0; i < len(cfg.Hidden); i++ {
		layers = append(layers, nn.NewDense(dims[i], dims[i+1], rng))
		if cfg.BatchNorm {
			layers = append(layers, nn.NewBatchNorm(dims[i+1]))
		}
		layers = append(layers, nn.NewActivation(nn.ActReLU))
	}
	// Decoder mirrors the encoder.
	for i := len(cfg.Hidden) - 1; i >= 1; i-- {
		layers = append(layers, nn.NewDense(dims[i+1], dims[i], rng))
		if cfg.BatchNorm {
			layers = append(layers, nn.NewBatchNorm(dims[i]))
		}
		layers = append(layers, nn.NewActivation(nn.ActReLU))
	}
	// Output layer back to the input width.
	layers = append(layers, nn.NewDense(dims[1], cfg.InputDim, rng))
	if cfg.FinalSigmoid {
		layers = append(layers, nn.NewActivation(nn.ActSigmoid))
	}
	return &Autoencoder{cfg: cfg, net: nn.NewNetwork(layers...)}, nil
}

// Fit trains the autoencoder to reconstruct the given samples (rows).
// It returns the final epoch's mean MSE loss. Cancelling ctx aborts
// training between batches and returns the context's error.
func (a *Autoencoder) Fit(ctx context.Context, samples *nn.Matrix) (float64, error) {
	if samples.Cols != a.cfg.InputDim {
		return 0, fmt.Errorf("autoencoder: samples have %d features, model expects %d", samples.Cols, a.cfg.InputDim)
	}
	return a.net.Fit(samples, samples, nn.TrainConfig{
		Epochs:         a.cfg.Epochs,
		BatchSize:      a.cfg.BatchSize,
		RNG:            mathx.NewRNG(a.cfg.Seed + 0x5eed),
		EarlyStopDelta: a.cfg.EarlyStopDelta,
		Patience:       a.cfg.Patience,
		Ctx:            ctx,
	})
}

// Scorer scores batches against a trained autoencoder through one reusable
// workspace. A Scorer is not safe for concurrent use; concurrent scoring
// of one trained model is done by giving each goroutine its own Scorer
// (the model itself is read-only during inference).
type Scorer struct {
	ae *Autoencoder
	ws *nn.Workspace
}

// NewScorer returns a scorer bound to this model.
func (a *Autoencoder) NewScorer() *Scorer {
	return &Scorer{ae: a, ws: a.net.NewWorkspace()}
}

// ScoreBatch appends the per-sample reconstruction errors of a stacked
// batch — any number of users'/days' flattened deviation matrices, one per
// row — to dst (which may be nil) and returns the extended slice. The
// batch flows through the network's fused batched forward pass, one GEMM
// per layer per chunk instead of a forward pass per sample. Rows are
// scored independently, so stacking and chunking leave every score
// bit-identical to scoring each row on its own. When dst has sufficient
// capacity the call performs no steady-state allocations.
func (s *Scorer) ScoreBatch(samples *nn.Matrix, dst []float64) ([]float64, error) {
	if samples.Cols != s.ae.cfg.InputDim {
		return nil, fmt.Errorf("autoencoder: samples have %d features, model expects %d", samples.Cols, s.ae.cfg.InputDim)
	}
	return s.ae.net.ReconstructionErrorsWS(s.ws, samples, dst), nil
}

// Save writes the trained model to w.
func (a *Autoencoder) Save(w io.Writer) error {
	if err := a.net.Save(w); err != nil {
		return fmt.Errorf("autoencoder: %w", err)
	}
	return nil
}

// Load reads a model previously written by Save. The saved model must
// take and give back rows of cfg.InputDim features.
func Load(r io.Reader, cfg Config) (*Autoencoder, error) {
	net, err := nn.Load(r)
	if err != nil {
		return nil, fmt.Errorf("autoencoder: %w", err)
	}
	in, out := net.Layers[0].(*nn.Dense).In, 0
	for _, l := range net.Layers {
		if d, ok := l.(*nn.Dense); ok {
			out = d.Out
		}
	}
	if in != cfg.InputDim || out != cfg.InputDim {
		return nil, fmt.Errorf("autoencoder: saved model maps %d features to %d, config expects %d", in, out, cfg.InputDim)
	}
	return &Autoencoder{cfg: cfg, net: net}, nil
}
