package nn

// Workspace owns every per-batch buffer one network needs for training and
// scoring: the gathered batch inputs/targets, each layer's forward
// activation and backward gradient, and the loss gradient. Buffers are
// lazily grown (Matrix.Reshape) and reused, so once shapes stabilize a
// training step performs zero heap allocations.
//
// A Workspace is bound to the layer structure of the network that created
// it and is not safe for concurrent use; concurrent scoring of one trained
// network is done by giving each goroutine its own Workspace.
type Workspace struct {
	params   []*Param
	bx, bt   *Matrix   // gathered batch inputs / targets
	acts     []*Matrix // acts[i]: output of layer i
	grads    []*Matrix // grads[i]: gradient w.r.t. the input of layer i ≥ 1
	lossGrad *Matrix   // dLoss/dOutput
	inCols   []int     // input width seen by each layer on the last forward
	rows     int       // batch rows of the last forward

	// Fused-inference state (see infer.go). The plan groups layers into
	// Dense+BatchNorm+activation steps; invStd is per-feature 1/√(var+ε)
	// scratch. Both live here rather than on the shared layers so
	// concurrent scorers stay race-free.
	plan      []fusedStep
	planBuilt bool
	invStd    []float64

	// sub is the reusable chunk-view header for ReconstructionErrorsWS, so
	// steady-state scoring builds no per-chunk Matrix on the heap.
	sub Matrix
}

// NewWorkspace returns an empty workspace for this network. Buffers are
// allocated on first use and retained across batches.
func (n *Network) NewWorkspace() *Workspace {
	l := len(n.Layers)
	ws := &Workspace{
		params:   n.Params(),
		bx:       &Matrix{},
		bt:       &Matrix{},
		lossGrad: &Matrix{},
		acts:     make([]*Matrix, l),
		grads:    make([]*Matrix, l),
		inCols:   make([]int, l),
	}
	for i := 0; i < l; i++ {
		ws.acts[i] = &Matrix{}
		if i > 0 {
			ws.grads[i] = &Matrix{}
		}
	}
	return ws
}

// forwardWS runs x through the network in training mode, writing each
// layer's output into the workspace activation buffers, and returns the
// final output (owned by ws).
func (n *Network) forwardWS(ws *Workspace, x *Matrix) *Matrix {
	ws.rows = x.Rows
	for i, l := range n.Layers {
		ws.inCols[i] = x.Cols
		out := ws.acts[i].Reshape(x.Rows, l.OutDim(x.Cols))
		l.ForwardInto(x, out)
		x = out
	}
	return x
}

// backwardWS propagates ws.lossGrad back through all layers, accumulating
// parameter gradients into the network's Params. It stops at layer 0's
// parameter gradients: nothing reads the gradient w.r.t. the network's
// input, so layer 0 gets a nil dst and that product is never computed.
func (n *Network) backwardWS(ws *Workspace) {
	grad := ws.lossGrad
	for i := len(n.Layers) - 1; i >= 0; i-- {
		var dst *Matrix
		if i > 0 {
			dst = ws.grads[i].Reshape(ws.rows, ws.inCols[i])
		}
		n.Layers[i].BackwardInto(grad, dst)
		grad = dst
	}
}

// TrainStep runs one forward/backward/Adadelta update on a prepared batch
// (bx inputs, bt targets) through ws and returns the batch's MSE loss.
// Once buffer shapes have stabilized it performs no heap allocations.
func (n *Network) TrainStep(ws *Workspace, bx, bt *Matrix, opt *Adadelta) float64 {
	for _, p := range ws.params {
		p.ZeroGrad()
	}
	pred := n.forwardWS(ws, bx)
	loss := MSEInto(pred, bt, ws.lossGrad.Reshape(pred.Rows, pred.Cols))
	n.backwardWS(ws)
	opt.Step(ws.params)
	return loss
}

// ReconstructionErrorsWS scores x in inference mode through ws, appending
// each row's mean-squared reconstruction error against itself to dst
// (which may be nil) and returning the extended slice. Rows are scored in
// chunks (through the fused batched forward, see infer.go) to bound peak
// buffer size on large inputs. Safe to call from multiple goroutines on
// one trained network as long as each goroutine uses its own Workspace.
func (n *Network) ReconstructionErrorsWS(ws *Workspace, x *Matrix, dst []float64) []float64 {
	const chunk = 512
	for start := 0; start < x.Rows; start += chunk {
		end := start + chunk
		if end > x.Rows {
			end = x.Rows
		}
		sub := &ws.sub
		*sub = Matrix{Rows: end - start, Cols: x.Cols, Data: x.Data[start*x.Cols : end*x.Cols]}
		pred := n.ForwardBatchInto(ws, sub)
		for i := 0; i < sub.Rows; i++ {
			var ss float64
			prow := pred.Row(i)
			trow := sub.Row(i)
			for j := range prow {
				d := prow[j] - trow[j]
				ss += d * d
			}
			dst = append(dst, ss/float64(pred.Cols))
		}
	}
	return dst
}
