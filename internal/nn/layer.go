package nn

import (
	"fmt"
	"math"

	"acobe/internal/mathx"
)

// Param is a trainable tensor together with its accumulated gradient and
// Adadelta's two accumulators, allocated by the first optimizer step.
type Param struct {
	Value *Matrix
	Grad  *Matrix

	// accGrad and accUpdate are Adadelta's running averages of the squared
	// gradients and of the squared updates.
	accGrad, accUpdate []float64
}

// newParam returns a parameter with a zeroed gradient of matching shape.
func newParam(value *Matrix) *Param {
	return &Param{Value: value, Grad: NewMatrix(value.Rows, value.Cols)}
}

// ZeroGrad clears the accumulated gradient.
func (p *Param) ZeroGrad() { p.Grad.Zero() }

// Layer is one differentiable stage of a network, run by the training
// Workspace; inference runs the fused plan of infer.go instead. The caller
// owns every buffer and the layer fully overwrites it.
type Layer interface {
	// ForwardInto runs the layer in training mode into out, which the
	// caller has shaped to x.Rows × OutDim(x.Cols), and keeps what the
	// backward pass needs.
	ForwardInto(x, out *Matrix)
	// BackwardInto back-propagates gradOut into dst, which the caller has
	// shaped like the input of the most recent forward pass,
	// accumulating parameter gradients. A nil dst means the input gradient
	// is not wanted: the layer then only accumulates its parameter
	// gradients.
	BackwardInto(gradOut, dst *Matrix)
	// Params returns the layer's trainable parameters (possibly empty).
	Params() []*Param
	// OutDim returns the layer's output width given its input width.
	OutDim(inDim int) int
}

// Dense is a fully-connected layer computing y = xW + b.
type Dense struct {
	In, Out int
	W       *Param // In×Out
	B       *Param // 1×Out

	lastInput *Matrix

	// Backward scratch, lazily allocated and reused across batches. Once
	// dW has been accumulated, dwScratch's In·Out floats hold Wᵀ for
	// dx = gradOut·Wᵀ.
	dwScratch *Matrix
	bsScratch []float64
}

// NewDense returns a dense layer with Xavier/Glorot-uniform initialized
// weights and zero biases, drawn from rng.
func NewDense(in, out int, rng *mathx.RNG) *Dense {
	w := NewMatrix(in, out)
	limit := math.Sqrt(6.0 / float64(in+out))
	for i := range w.Data {
		w.Data[i] = (2*rng.Float64() - 1) * limit
	}
	return &Dense{In: in, Out: out, W: newParam(w), B: newParam(NewMatrix(1, out))}
}

// ForwardInto implements Layer.
func (d *Dense) ForwardInto(x, out *Matrix) {
	if x.Cols != d.In {
		panic(fmt.Sprintf("nn: dense expects %d inputs, got %d", d.In, x.Cols))
	}
	d.lastInput = x
	MatMulInto(out, x, d.W.Value)
	out.AddRowVec(d.B.Value.Data)
}

// BackwardInto implements Layer.
func (d *Dense) BackwardInto(gradOut, dst *Matrix) {
	// dW += xᵀ · gradOut ; db += column sums ; dx = gradOut · Wᵀ
	if d.dwScratch == nil {
		d.dwScratch = NewMatrix(d.In, d.Out)
		d.bsScratch = make([]float64, d.Out)
	}
	dw := MatMulATBInto(d.dwScratch.Reshape(d.In, d.Out), d.lastInput, gradOut)
	for i := range d.W.Grad.Data {
		d.W.Grad.Data[i] += dw.Data[i]
	}
	bs := gradOut.ColSumsInto(d.bsScratch)
	for i := range d.B.Grad.Data {
		d.B.Grad.Data[i] += bs[i]
	}
	if dst != nil {
		matmulABTInto(dst, gradOut, d.W.Value, d.dwScratch)
	}
}

// Params implements Layer.
func (d *Dense) Params() []*Param { return []*Param{d.W, d.B} }

// OutDim implements Layer.
func (d *Dense) OutDim(int) int { return d.Out }

// Activation kinds supported by ActivationLayer: the autoencoder's hidden
// ReLU and its sigmoid output.
type Activation int

// Supported activation functions.
const (
	ActReLU Activation = iota + 1
	ActSigmoid
)

// String implements fmt.Stringer.
func (a Activation) String() string {
	switch a {
	case ActReLU:
		return "relu"
	case ActSigmoid:
		return "sigmoid"
	default:
		return fmt.Sprintf("activation(%d)", int(a))
	}
}

// activate writes kind(src) into dst, which may alias src.
func activate(kind Activation, dst, src []float64) {
	switch kind {
	case ActReLU:
		reluMask(dst, src, src)
	case ActSigmoid:
		sigmoidInto(dst, src)
	default:
		panic(fmt.Sprintf("nn: unknown %v", kind))
	}
}

// ActivationLayer applies a pointwise nonlinearity.
type ActivationLayer struct {
	Kind Activation

	lastOutput *Matrix
	lastInput  *Matrix
}

// NewActivation returns an activation layer of the given kind.
func NewActivation(kind Activation) *ActivationLayer {
	return &ActivationLayer{Kind: kind}
}

// ForwardInto implements Layer.
func (a *ActivationLayer) ForwardInto(x, out *Matrix) {
	activate(a.Kind, out.Data, x.Data)
	a.lastInput = x
	a.lastOutput = out
}

// BackwardInto implements Layer.
func (a *ActivationLayer) BackwardInto(gradOut, dst *Matrix) {
	if dst == nil {
		return
	}
	switch a.Kind {
	case ActReLU:
		reluMask(dst.Data, a.lastInput.Data, gradOut.Data)
	case ActSigmoid:
		sigmoidGrad(dst.Data, gradOut.Data, a.lastOutput.Data)
	}
}

// Params implements Layer.
func (a *ActivationLayer) Params() []*Param { return nil }

// OutDim implements Layer.
func (a *ActivationLayer) OutDim(inDim int) int { return inDim }
