package nn

import (
	"fmt"
	"math"

	"acobe/internal/mathx"
)

// Param is a trainable tensor together with its accumulated gradient and
// optimizer slots (allocated lazily by the optimizer).
type Param struct {
	Name  string
	Value *Matrix
	Grad  *Matrix

	// slots holds optimizer state keyed by slot name (e.g. Adadelta's
	// accumulated gradient and update squares).
	slots map[string]*Matrix
}

// newParam returns a parameter with a zeroed gradient of matching shape.
func newParam(name string, value *Matrix) *Param {
	return &Param{
		Name:  name,
		Value: value,
		Grad:  NewMatrix(value.Rows, value.Cols),
	}
}

// Slot returns the named optimizer state matrix, creating a zeroed one of
// the parameter's shape on first use.
func (p *Param) Slot(name string) *Matrix {
	if p.slots == nil {
		p.slots = make(map[string]*Matrix)
	}
	s, ok := p.slots[name]
	if !ok {
		s = NewMatrix(p.Value.Rows, p.Value.Cols)
		p.slots[name] = s
	}
	return s
}

// ZeroGrad clears the accumulated gradient.
func (p *Param) ZeroGrad() { p.Grad.Zero() }

// Layer is one differentiable stage of a network. Forward consumes a batch
// (rows = samples) and Backward consumes the gradient of the loss with
// respect to the layer's output, returning the gradient with respect to its
// input while accumulating parameter gradients.
//
// The Into variants are the allocation-free hot path used by Workspace:
// the caller owns the output buffers and the layer fully overwrites them.
// Forward/Backward are thin allocating wrappers kept for compatibility.
type Layer interface {
	// Forward runs the layer. train toggles training-time behaviour
	// (batch statistics in BatchNorm).
	Forward(x *Matrix, train bool) *Matrix
	// ForwardInto runs the layer into out, which the caller has shaped to
	// x.Rows × OutDim(x.Cols); out's prior contents are fully overwritten.
	// When train is false the layer must not mutate receiver state, so
	// concurrent inference over one trained layer is race-free (each
	// goroutine bringing its own buffers).
	ForwardInto(x *Matrix, train bool, out *Matrix)
	// Backward back-propagates gradOut and returns the gradient w.r.t.
	// the input of the most recent Forward call.
	Backward(gradOut *Matrix) *Matrix
	// BackwardInto back-propagates gradOut into dst, which the caller has
	// shaped like the input of the most recent training-mode forward pass,
	// accumulating parameter gradients. A nil dst means the input gradient
	// is not wanted: the layer then only accumulates its parameter
	// gradients.
	BackwardInto(gradOut, dst *Matrix)
	// Params returns the layer's trainable parameters (possibly empty).
	Params() []*Param
	// OutDim returns the layer's output width given its input width.
	OutDim(inDim int) int
	// Describe returns a short human-readable summary.
	Describe() string
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
	return &Dense{
		In:  in,
		Out: out,
		W:   newParam(fmt.Sprintf("dense_%dx%d_w", in, out), w),
		B:   newParam(fmt.Sprintf("dense_%dx%d_b", in, out), NewMatrix(1, out)),
	}
}

// Forward implements Layer.
func (d *Dense) Forward(x *Matrix, train bool) *Matrix {
	out := NewMatrix(x.Rows, d.Out)
	d.ForwardInto(x, train, out)
	return out
}

// ForwardInto implements Layer.
func (d *Dense) ForwardInto(x *Matrix, train bool, out *Matrix) {
	if x.Cols != d.In {
		panic(fmt.Sprintf("nn: dense expects %d inputs, got %d", d.In, x.Cols))
	}
	if train {
		d.lastInput = x
	}
	MatMulInto(out, x, d.W.Value)
	out.AddRowVec(d.B.Value.Data)
}

// Backward implements Layer.
func (d *Dense) Backward(gradOut *Matrix) *Matrix {
	dst := NewMatrix(gradOut.Rows, d.In)
	d.BackwardInto(gradOut, dst)
	return dst
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

// Describe implements Layer.
func (d *Dense) Describe() string { return fmt.Sprintf("Dense(%d→%d)", d.In, d.Out) }

// Activation kinds supported by ActivationLayer.
type Activation int

// Supported activation functions.
const (
	ActReLU Activation = iota + 1
	ActSigmoid
	ActTanh
	ActIdentity
)

// String implements fmt.Stringer.
func (a Activation) String() string {
	switch a {
	case ActReLU:
		return "relu"
	case ActSigmoid:
		return "sigmoid"
	case ActTanh:
		return "tanh"
	case ActIdentity:
		return "identity"
	default:
		return fmt.Sprintf("activation(%d)", int(a))
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

// Forward implements Layer.
func (a *ActivationLayer) Forward(x *Matrix, train bool) *Matrix {
	out := NewMatrix(x.Rows, x.Cols)
	a.ForwardInto(x, train, out)
	return out
}

// ForwardInto implements Layer.
func (a *ActivationLayer) ForwardInto(x *Matrix, train bool, out *Matrix) {
	switch a.Kind {
	case ActReLU:
		reluMask(out.Data, x.Data, x.Data)
	case ActSigmoid:
		sigmoidInto(out.Data, x.Data)
	case ActTanh:
		for i, v := range x.Data {
			out.Data[i] = math.Tanh(v)
		}
	case ActIdentity:
		copy(out.Data, x.Data)
	default:
		panic(fmt.Sprintf("nn: unknown activation %v", a.Kind))
	}
	if train {
		a.lastInput = x
		a.lastOutput = out
	}
}

// Backward implements Layer.
func (a *ActivationLayer) Backward(gradOut *Matrix) *Matrix {
	out := NewMatrix(gradOut.Rows, gradOut.Cols)
	a.BackwardInto(gradOut, out)
	return out
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
	case ActTanh:
		for i, g := range gradOut.Data {
			y := a.lastOutput.Data[i]
			dst.Data[i] = g * (1 - y*y)
		}
	case ActIdentity:
		copy(dst.Data, gradOut.Data)
	default:
		panic(fmt.Sprintf("nn: unknown activation %v", a.Kind))
	}
}

// Params implements Layer.
func (a *ActivationLayer) Params() []*Param { return nil }

// OutDim implements Layer.
func (a *ActivationLayer) OutDim(inDim int) int { return inDim }

// Describe implements Layer.
func (a *ActivationLayer) Describe() string { return a.Kind.String() }
