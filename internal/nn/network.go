package nn

import (
	"context"
	"errors"
	"fmt"

	"acobe/internal/mathx"
)

// Network is a sequential stack of layers trained with mini-batch
// Adadelta against a mean-squared-error loss (the paper's loss function).
type Network struct {
	Layers []Layer
}

// NewNetwork returns a network over the given layers, which must have the
// layout checkLayout accepts; it panics otherwise.
func NewNetwork(layers ...Layer) *Network {
	if err := checkLayout(layers); err != nil {
		panic(err)
	}
	return &Network{Layers: layers}
}

// checkLayout reports whether layers have the one layout a network takes,
// (Dense [BatchNorm] [Activation])+, with every width chaining into the
// next layer's, and names the first layer that breaks it.
func checkLayout(layers []Layer) error {
	if len(layers) == 0 {
		return errors.New("nn: network has no layers")
	}
	width := 0
	for i := 0; i < len(layers); {
		d, ok := layers[i].(*Dense)
		if !ok {
			return fmt.Errorf("nn: layer %d: %T where a dense layer must start a step", i, layers[i])
		}
		if d.In <= 0 || d.Out <= 0 {
			return fmt.Errorf("nn: layer %d: dense %d→%d has a non-positive width", i, d.In, d.Out)
		}
		if i > 0 && d.In != width {
			return fmt.Errorf("nn: layer %d: dense takes %d inputs, the layer before gives %d", i, d.In, width)
		}
		width = d.Out
		i++
		if i < len(layers) {
			if bn, ok := layers[i].(*BatchNorm); ok {
				if bn.Dim != width {
					return fmt.Errorf("nn: layer %d: batchnorm over %d features follows a dense of width %d", i, bn.Dim, width)
				}
				i++
			}
		}
		if i < len(layers) {
			if a, ok := layers[i].(*ActivationLayer); ok {
				if a.Kind != ActReLU && a.Kind != ActSigmoid {
					return fmt.Errorf("nn: layer %d: unknown %v", i, a.Kind)
				}
				i++
			}
		}
	}
	return nil
}

// Params returns all trainable parameters in layer order.
func (n *Network) Params() []*Param {
	var out []*Param
	for _, l := range n.Layers {
		out = append(out, l.Params()...)
	}
	return out
}

// MSEInto computes the mean-squared error between prediction and target,
// writing the loss gradient w.r.t. the prediction into grad (same shape,
// fully overwritten) and returning the loss.
func MSEInto(pred, target, grad *Matrix) (loss float64) {
	checkSameShape("MSE", pred, target)
	checkSameShape("MSE grad", pred, grad)
	total := float64(len(pred.Data))
	for i := range pred.Data {
		d := pred.Data[i] - target.Data[i]
		loss += d * d
		grad.Data[i] = 2 * d / total
	}
	return loss / total
}

// TrainConfig controls Fit.
type TrainConfig struct {
	Epochs    int
	BatchSize int
	// RNG reshuffles the sample order every epoch.
	RNG *mathx.RNG
	// Verbose, when non-nil, receives one line per epoch.
	Verbose func(epoch int, loss float64)
	// EarlyStopDelta stops training when the epoch loss improves by less
	// than this fraction for Patience consecutive epochs. Zero disables.
	EarlyStopDelta float64
	Patience       int
	// Ctx, when non-nil, is checked between batches: cancellation aborts
	// training promptly (mid-epoch) and Fit returns the context's error.
	Ctx context.Context
}

// Fit trains the network with Adadelta to map inputs to targets (for
// autoencoders, targets == inputs). It returns the final epoch's mean loss.
func (n *Network) Fit(inputs, targets *Matrix, cfg TrainConfig) (float64, error) {
	if inputs.Rows == 0 {
		return 0, errors.New("nn: Fit with no samples")
	}
	if inputs.Rows != targets.Rows {
		return 0, fmt.Errorf("nn: Fit sample mismatch: %d inputs vs %d targets", inputs.Rows, targets.Rows)
	}
	if cfg.Epochs <= 0 {
		cfg.Epochs = 1
	}
	if cfg.BatchSize <= 0 {
		cfg.BatchSize = 32
	}
	rng := cfg.RNG
	if rng == nil {
		rng = mathx.NewRNG(1)
	}

	order := make([]int, inputs.Rows)
	for i := range order {
		order[i] = i
	}

	// All per-batch buffers live in the workspace; steady-state epochs
	// allocate nothing.
	ws := n.NewWorkspace()
	opt := NewAdadelta()

	var lastLoss float64
	bad := 0
	prev := -1.0
	for epoch := 0; epoch < cfg.Epochs; epoch++ {
		mathx.Shuffle(rng, order)
		var epochLoss float64
		var batches int
		for start := 0; start < len(order); start += cfg.BatchSize {
			if cfg.Ctx != nil {
				if err := cfg.Ctx.Err(); err != nil {
					return lastLoss, fmt.Errorf("nn: training canceled at epoch %d: %w", epoch, err)
				}
			}
			end := start + cfg.BatchSize
			if end > len(order) {
				end = len(order)
			}
			bx := gatherRowsInto(ws.bx, inputs, order[start:end])
			bt := gatherRowsInto(ws.bt, targets, order[start:end])

			epochLoss += n.TrainStep(ws, bx, bt, opt)
			batches++
		}
		lastLoss = epochLoss / float64(batches)
		if cfg.Verbose != nil {
			cfg.Verbose(epoch, lastLoss)
		}
		if cfg.EarlyStopDelta > 0 {
			if prev >= 0 && prev-lastLoss < cfg.EarlyStopDelta*prev {
				bad++
				if bad >= cfg.Patience {
					break
				}
			} else {
				bad = 0
			}
			prev = lastLoss
		}
	}
	return lastLoss, nil
}

// gatherRowsInto copies the given rows of m into dst, reshaping it to
// len(idx)×m.Cols, and returns dst.
func gatherRowsInto(dst, m *Matrix, idx []int) *Matrix {
	dst.Reshape(len(idx), m.Cols)
	for i, r := range idx {
		copy(dst.Row(i), m.Row(r))
	}
	return dst
}
