package nn

import (
	"fmt"
	"math"
)

// BatchNorm implements batch normalization (Ioffe & Szegedy 2015) over the
// feature dimension, matching tf.keras.layers.BatchNormalization as used by
// the paper: during training it normalizes with batch statistics and
// maintains exponential moving averages; inference (the fused plan of
// infer.go) normalizes with the moving averages.
type BatchNorm struct {
	Dim      int
	Momentum float64 // moving-average momentum (keras default 0.99)
	Epsilon  float64 // numerical stability term (keras default 1e-3)

	Gamma *Param // 1×Dim scale, initialized to ones
	Beta  *Param // 1×Dim shift, initialized to zeros

	// Moving statistics used at inference time (not trained by gradient).
	MovingMean *Matrix // 1×Dim
	MovingVar  *Matrix // 1×Dim

	// Saved forward-pass intermediates for backprop. The matrices and
	// slices are reused across batches (Reshape), so steady-state training
	// does not allocate.
	lastXHat   *Matrix
	lastInvStd []float64
	lastBatch  int
	// lastUsedMoving marks that the most recent forward pass fell back to
	// moving statistics (single-sample batch); the backward pass then
	// treats the layer as a fixed affine transform.
	lastUsedMoving bool

	// Reduction scratch (length Dim), reused across batches, and the
	// backward pass's per-column factors invStd/n and γ·ΣDy.
	meanScratch  []float64
	varScratch   []float64
	sumDyScratch []float64
	sumDxhScr    []float64
	dxScale      []float64
	dxShift      []float64
}

// NewBatchNorm returns a batch-normalization layer over dim features with
// keras-default momentum 0.99 and epsilon 1e-3.
func NewBatchNorm(dim int) *BatchNorm {
	gamma := NewMatrix(1, dim)
	for i := range gamma.Data {
		gamma.Data[i] = 1
	}
	movingVar := NewMatrix(1, dim)
	for i := range movingVar.Data {
		movingVar.Data[i] = 1
	}
	return &BatchNorm{
		Dim:        dim,
		Momentum:   0.99,
		Epsilon:    1e-3,
		Gamma:      newParam(gamma),
		Beta:       newParam(NewMatrix(1, dim)),
		MovingMean: NewMatrix(1, dim),
		MovingVar:  movingVar,
	}
}

// ForwardInto implements Layer. A one-row batch has no batch variance,
// so it is normalized with the moving statistics, which it leaves as
// they are.
func (b *BatchNorm) ForwardInto(x, out *Matrix) {
	if x.Cols != b.Dim {
		panic(fmt.Sprintf("nn: batchnorm expects %d features, got %d", b.Dim, x.Cols))
	}
	b.lastUsedMoving = x.Rows == 1
	if b.lastUsedMoving {
		for j := 0; j < b.Dim; j++ {
			invStd := 1 / math.Sqrt(b.MovingVar.Data[j]+b.Epsilon)
			out.Data[j] = b.Gamma.Value.Data[j]*(x.Data[j]-b.MovingMean.Data[j])*invStd + b.Beta.Value.Data[j]
		}
		return
	}

	n := float64(x.Rows)
	if b.meanScratch == nil {
		b.meanScratch = make([]float64, b.Dim)
		b.varScratch = make([]float64, b.Dim)
	}
	mean, variance := b.meanScratch, b.varScratch
	for j := range mean {
		mean[j], variance[j] = 0, 0
	}
	colSumAdd(mean, x)
	for j := range mean {
		mean[j] /= n
	}
	colSqDevAdd(variance, mean, x)
	for j := range variance {
		variance[j] /= n
	}

	if b.lastInvStd == nil {
		b.lastInvStd = make([]float64, b.Dim)
	}
	if b.lastXHat == nil {
		b.lastXHat = &Matrix{}
	}
	b.lastXHat.Reshape(x.Rows, x.Cols)
	b.lastBatch = x.Rows
	for j := 0; j < b.Dim; j++ {
		b.lastInvStd[j] = 1 / math.Sqrt(variance[j]+b.Epsilon)
	}
	bnNormalize(out, b.lastXHat, x, mean, b.lastInvStd, b.Gamma.Value.Data, b.Beta.Value.Data)

	// Update moving statistics.
	for j := 0; j < b.Dim; j++ {
		b.MovingMean.Data[j] = b.Momentum*b.MovingMean.Data[j] + (1-b.Momentum)*mean[j]
		b.MovingVar.Data[j] = b.Momentum*b.MovingVar.Data[j] + (1-b.Momentum)*variance[j]
	}
}

// BackwardInto implements Layer. After a one-row batch the layer acts as
// a fixed affine transform, dx = dy · γ · invStd, and γ/β get no gradient:
// a negligible approximation that only affects the rare one-row tail
// batch of an epoch.
func (b *BatchNorm) BackwardInto(gradOut, dst *Matrix) {
	if b.lastUsedMoving {
		if dst == nil {
			return
		}
		for j := 0; j < b.Dim; j++ {
			invStd := 1 / math.Sqrt(b.MovingVar.Data[j]+b.Epsilon)
			dst.Data[j] = gradOut.Data[j] * b.Gamma.Value.Data[j] * invStd
		}
		return
	}
	if b.lastXHat == nil {
		panic("nn: BatchNorm.BackwardInto before ForwardInto")
	}
	n := float64(b.lastBatch)

	// Per-feature reductions.
	if b.sumDyScratch == nil {
		b.sumDyScratch = make([]float64, b.Dim)
		b.sumDxhScr = make([]float64, b.Dim)
		b.dxScale = make([]float64, b.Dim)
		b.dxShift = make([]float64, b.Dim)
	}
	sumDy, sumDyXHat := b.sumDyScratch, b.sumDxhScr
	for j := range sumDy {
		sumDy[j], sumDyXHat[j] = 0, 0
	}
	bnGradSums(sumDy, sumDyXHat, gradOut, b.lastXHat)
	for j := 0; j < b.Dim; j++ {
		b.Gamma.Grad.Data[j] += sumDyXHat[j]
		b.Beta.Grad.Data[j] += sumDy[j]
	}
	if dst == nil {
		return
	}
	// Standard batch-norm input gradient, with dx̂ = dy·γ:
	// dx = (1/n) * invStd * (n*dx̂ - sum(dx̂) - x̂ * sum(dx̂*x̂))
	gamma := b.Gamma.Value.Data
	for j := 0; j < b.Dim; j++ {
		b.dxScale[j] = b.lastInvStd[j] / n
		b.dxShift[j] = gamma[j] * sumDy[j]
	}
	bnInputGrad(dst, gradOut, b.lastXHat, b.dxScale, b.dxShift, gamma, sumDyXHat, n)
}

// Params implements Layer.
func (b *BatchNorm) Params() []*Param { return []*Param{b.Gamma, b.Beta} }

// OutDim implements Layer.
func (b *BatchNorm) OutDim(inDim int) int { return inDim }
