package nn

import (
	"fmt"
	"math"
)

// fusedStep is one stage of a network's inference plan: a Dense layer with
// the BatchNorm and/or activation that directly follows it folded into a
// single row-major epilogue pass over the matmul output, or (generic) any
// layer sequence the folder does not recognize, run through its ordinary
// ForwardInto.
type fusedStep struct {
	dense   *Dense
	bn      *BatchNorm // nil when no BatchNorm is fused
	act     Activation // 0 when no activation is fused
	generic Layer      // non-nil for unfused layers; other fields unset
}

// buildInferPlan groups the network's layers into fused steps. The
// autoencoder stacks are [Dense, BatchNorm, ReLU]×enc + mirrored dec +
// Dense + Sigmoid, so every layer lands in a fused step; anything else
// falls back to a generic step with identical semantics.
func (n *Network) buildInferPlan(dst []fusedStep) []fusedStep {
	dst = dst[:0]
	for i := 0; i < len(n.Layers); {
		d, ok := n.Layers[i].(*Dense)
		if !ok {
			dst = append(dst, fusedStep{generic: n.Layers[i]})
			i++
			continue
		}
		st := fusedStep{dense: d}
		i++
		if i < len(n.Layers) {
			if bn, ok := n.Layers[i].(*BatchNorm); ok && bn.Dim == d.Out {
				st.bn = bn
				i++
			}
		}
		if i < len(n.Layers) {
			if a, ok := n.Layers[i].(*ActivationLayer); ok {
				st.act = a.Kind
				i++
			}
		}
		dst = append(dst, st)
	}
	return dst
}

// ForwardBatchInto runs a batch through the network in inference mode
// using ws buffers, returning the final output (owned by ws). After each
// Dense matmul the bias add, BatchNorm inference affine, and activation
// are applied in one fused row-major pass over the output buffer, instead
// of three column- or element-order sweeps through separate buffers.
//
// Every element still undergoes the exact expressions of the unfused
// layers in the same order — (v+bias), then γ·(v−μ)·invStd+β, then the
// activation — so the result is bit-identical to Forward(x, false). Like
// all inference paths it mutates no layer state: concurrent scoring of
// one trained network is race-free when each goroutine has its own
// Workspace (the plan and invStd scratch live in ws, not the layers).
func (n *Network) ForwardBatchInto(ws *Workspace, x *Matrix) *Matrix {
	if !ws.planBuilt {
		ws.plan = n.buildInferPlan(ws.plan)
		ws.planBuilt = true
	}
	for si := range ws.plan {
		st := &ws.plan[si]
		out := ws.acts[si]
		if st.generic != nil {
			out.Reshape(x.Rows, st.generic.OutDim(x.Cols))
			st.generic.ForwardInto(x, false, out)
		} else {
			if x.Cols != st.dense.In {
				panic(fmt.Sprintf("nn: dense expects %d inputs, got %d", st.dense.In, x.Cols))
			}
			out.Reshape(x.Rows, st.dense.Out)
			MatMulInto(out, x, st.dense.W.Value)
			st.epilogue(out, ws)
		}
		x = out
	}
	return x
}

// epilogue applies the step's bias add, BatchNorm inference affine, and
// activation in place over the dense matmul output, one row-major pass.
// The per-feature invStd = 1/√(movingVar+ε) values are recomputed into
// workspace-owned scratch on every call rather than cached on the shared
// trained layer, keeping concurrent scorers race-free.
func (st *fusedStep) epilogue(out *Matrix, ws *Workspace) {
	bias := st.dense.B.Value.Data
	if st.bn != nil {
		bn := st.bn
		if cap(ws.invStd) < bn.Dim {
			ws.invStd = make([]float64, bn.Dim)
		}
		invStd := ws.invStd[:bn.Dim]
		for j := range invStd {
			invStd[j] = 1 / math.Sqrt(bn.MovingVar.Data[j]+bn.Epsilon)
		}
		bnInferEpilogue(out, bias, bn.MovingMean.Data, invStd, bn.Gamma.Value.Data, bn.Beta.Value.Data)
	} else {
		out.AddRowVec(bias)
	}
	applyActivation(st.act, out.Data)
}

// applyActivation applies the activation in place with the exact
// per-element expressions of ActivationLayer.ForwardInto. Kind 0 means no
// fused activation.
func applyActivation(kind Activation, data []float64) {
	switch kind {
	case 0, ActIdentity:
	case ActReLU:
		reluMask(data, data, data)
	case ActSigmoid:
		sigmoidInto(data, data)
	case ActTanh:
		for i, v := range data {
			data[i] = math.Tanh(v)
		}
	default:
		panic(fmt.Sprintf("nn: unknown activation %v", kind))
	}
}
