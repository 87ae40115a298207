package nn

import (
	"encoding/gob"
	"fmt"
	"io"
)

// layerSnapshot is the on-disk representation of one layer.
type layerSnapshot struct {
	Kind string // "dense", "activation", "batchnorm"

	// Dense
	In, Out int
	W, B    []float64

	// Activation
	Activation Activation

	// BatchNorm
	Dim        int
	Momentum   float64
	Epsilon    float64
	Gamma      []float64
	Beta       []float64
	MovingMean []float64
	MovingVar  []float64
}

// networkSnapshot is the on-disk representation of a network.
type networkSnapshot struct {
	Version int
	Layers  []layerSnapshot
}

// Save writes the network (architecture and weights, including BatchNorm
// moving statistics) to w in gob format.
func (n *Network) Save(w io.Writer) error {
	snap := networkSnapshot{Version: 1}
	for _, l := range n.Layers {
		switch v := l.(type) {
		case *Dense:
			snap.Layers = append(snap.Layers, layerSnapshot{
				Kind: "dense",
				In:   v.In,
				Out:  v.Out,
				W:    append([]float64(nil), v.W.Value.Data...),
				B:    append([]float64(nil), v.B.Value.Data...),
			})
		case *ActivationLayer:
			snap.Layers = append(snap.Layers, layerSnapshot{
				Kind:       "activation",
				Activation: v.Kind,
			})
		case *BatchNorm:
			snap.Layers = append(snap.Layers, layerSnapshot{
				Kind:       "batchnorm",
				Dim:        v.Dim,
				Momentum:   v.Momentum,
				Epsilon:    v.Epsilon,
				Gamma:      append([]float64(nil), v.Gamma.Value.Data...),
				Beta:       append([]float64(nil), v.Beta.Value.Data...),
				MovingMean: append([]float64(nil), v.MovingMean.Data...),
				MovingVar:  append([]float64(nil), v.MovingVar.Data...),
			})
		default:
			return fmt.Errorf("nn: cannot serialize layer type %T", l)
		}
	}
	if err := gob.NewEncoder(w).Encode(snap); err != nil {
		return fmt.Errorf("nn: encode network: %w", err)
	}
	return nil
}

// Load reads a network previously written by Save. It refuses, naming the
// layer, any model whose shapes do not match their data or whose layers
// do not have the layout NewNetwork takes.
func Load(r io.Reader) (*Network, error) {
	var snap networkSnapshot
	if err := gob.NewDecoder(r).Decode(&snap); err != nil {
		return nil, fmt.Errorf("nn: decode network: %w", err)
	}
	if snap.Version != 1 {
		return nil, fmt.Errorf("nn: unsupported snapshot version %d", snap.Version)
	}
	layers := make([]Layer, 0, len(snap.Layers))
	for i, ls := range snap.Layers {
		switch ls.Kind {
		case "dense":
			if ls.In <= 0 || ls.Out <= 0 {
				return nil, fmt.Errorf("nn: layer %d: dense %d→%d has a non-positive width", i, ls.In, ls.Out)
			}
			// Divide rather than multiply, so In·Out cannot overflow.
			if len(ls.W)%ls.Out != 0 || len(ls.W)/ls.Out != ls.In || len(ls.B) != ls.Out {
				return nil, fmt.Errorf("nn: layer %d: dense %d→%d holds %d weights and %d biases", i, ls.In, ls.Out, len(ls.W), len(ls.B))
			}
			layers = append(layers, &Dense{
				In:  ls.In,
				Out: ls.Out,
				W:   newParam(&Matrix{Rows: ls.In, Cols: ls.Out, Data: append([]float64(nil), ls.W...)}),
				B:   newParam(&Matrix{Rows: 1, Cols: ls.Out, Data: append([]float64(nil), ls.B...)}),
			})
		case "activation":
			layers = append(layers, NewActivation(ls.Activation))
		case "batchnorm":
			if len(ls.Gamma) != ls.Dim || len(ls.Beta) != ls.Dim || len(ls.MovingMean) != ls.Dim || len(ls.MovingVar) != ls.Dim {
				return nil, fmt.Errorf("nn: layer %d: batchnorm over %d features holds %d γ, %d β, %d moving means and %d moving variances",
					i, ls.Dim, len(ls.Gamma), len(ls.Beta), len(ls.MovingMean), len(ls.MovingVar))
			}
			bn := NewBatchNorm(ls.Dim)
			bn.Momentum = ls.Momentum
			bn.Epsilon = ls.Epsilon
			copy(bn.Gamma.Value.Data, ls.Gamma)
			copy(bn.Beta.Value.Data, ls.Beta)
			copy(bn.MovingMean.Data, ls.MovingMean)
			copy(bn.MovingVar.Data, ls.MovingVar)
			layers = append(layers, bn)
		default:
			return nil, fmt.Errorf("nn: layer %d: unknown kind %q", i, ls.Kind)
		}
	}
	if err := checkLayout(layers); err != nil {
		return nil, err
	}
	return &Network{Layers: layers}, nil
}
