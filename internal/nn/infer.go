package nn

import (
	"fmt"
	"math"
)

// fusedStep is one stage of a network's inference plan: a Dense layer with
// the BatchNorm and/or activation that directly follows it folded into a
// single row-major epilogue pass over the matmul output.
type fusedStep struct {
	dense *Dense
	bn    *BatchNorm // nil when no BatchNorm is fused
	act   Activation // 0 when no activation is fused
}

// buildInferPlan groups the network's layers into fused steps. Every
// network has the layout (Dense [BatchNorm] [Activation])+ (checkLayout),
// so each step is one Dense and what follows it up to the next Dense.
func (n *Network) buildInferPlan(dst []fusedStep) []fusedStep {
	dst = dst[:0]
	for i := 0; i < len(n.Layers); {
		st := fusedStep{dense: n.Layers[i].(*Dense)}
		i++
		if i < len(n.Layers) {
			if bn, ok := n.Layers[i].(*BatchNorm); ok {
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
// Every element undergoes, in order, (v+bias), then γ·(v−μ)·invStd+β with
// the moving statistics, then the activation. It mutates no layer state:
// concurrent scoring of one trained network is race-free when each
// goroutine has its own Workspace (the plan and invStd scratch live in
// ws, not the layers).
func (n *Network) ForwardBatchInto(ws *Workspace, x *Matrix) *Matrix {
	if !ws.planBuilt {
		ws.plan = n.buildInferPlan(ws.plan)
		ws.planBuilt = true
	}
	// The layout chains every width, so only the input's needs checking.
	if in := ws.plan[0].dense.In; x.Cols != in {
		panic(fmt.Sprintf("nn: dense expects %d inputs, got %d", in, x.Cols))
	}
	for si := range ws.plan {
		st := &ws.plan[si]
		out := ws.acts[si].Reshape(x.Rows, st.dense.Out)
		MatMulInto(out, x, st.dense.W.Value)
		st.epilogue(out, ws)
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
	if st.act != 0 {
		activate(st.act, out.Data, out.Data)
	}
}
