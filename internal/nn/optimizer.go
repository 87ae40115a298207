package nn

import (
	"fmt"
	"math"
)

// Optimizer updates parameters from their accumulated gradients.
type Optimizer interface {
	// Step applies one update to every parameter and leaves gradients
	// untouched (the trainer zeroes them).
	Step(params []*Param)
	// Describe returns a short human-readable summary.
	Describe() string
}

// SGD is plain stochastic gradient descent with optional momentum.
type SGD struct {
	LR       float64
	Momentum float64
}

// NewSGD returns an SGD optimizer with the given learning rate and no
// momentum.
func NewSGD(lr float64) *SGD { return &SGD{LR: lr} }

// Step implements Optimizer.
func (s *SGD) Step(params []*Param) {
	for _, p := range params {
		if s.Momentum > 0 {
			vel := p.Slot("velocity")
			for i := range p.Value.Data {
				vel.Data[i] = s.Momentum*vel.Data[i] - s.LR*p.Grad.Data[i]
				p.Value.Data[i] += vel.Data[i]
			}
			continue
		}
		for i := range p.Value.Data {
			p.Value.Data[i] -= s.LR * p.Grad.Data[i]
		}
	}
}

// Describe implements Optimizer.
func (s *SGD) Describe() string {
	return fmt.Sprintf("SGD(lr=%g, momentum=%g)", s.LR, s.Momentum)
}

// Adadelta implements Zeiler's Adadelta, the optimizer the paper trains
// with. Defaults match tf.keras.optimizers.Adadelta: rho=0.95, eps=1e-7,
// lr=1 (the canonical Adadelta has no learning rate; keras multiplies the
// update by lr, defaulting to 0.001 in TF2 — we default to 1.0, which is
// the original algorithm and converges far faster on these small models).
type Adadelta struct {
	LR  float64
	Rho float64
	Eps float64
}

// NewAdadelta returns an Adadelta optimizer with canonical parameters.
func NewAdadelta() *Adadelta {
	return &Adadelta{LR: 1.0, Rho: 0.95, Eps: 1e-7}
}

// Step implements Optimizer. Every weight gets the expressions of
// adadeltaStep, four weights to a vector where the CPU has AVX.
func (a *Adadelta) Step(params []*Param) {
	for _, p := range params {
		adadeltaStep(p.Value.Data, p.Grad.Data, p.Slot("acc_grad").Data, p.Slot("acc_update").Data,
			a.Rho, 1-a.Rho, a.Eps, a.LR)
	}
}

// Describe implements Optimizer.
func (a *Adadelta) Describe() string {
	return fmt.Sprintf("Adadelta(lr=%g, rho=%g, eps=%g)", a.LR, a.Rho, a.Eps)
}

// Adam implements Kingma & Ba's Adam optimizer. It is provided for
// ablations and faster experimentation; the paper itself uses Adadelta.
type Adam struct {
	LR    float64
	Beta1 float64
	Beta2 float64
	Eps   float64

	t int
}

// NewAdam returns an Adam optimizer with the canonical defaults.
func NewAdam(lr float64) *Adam {
	return &Adam{LR: lr, Beta1: 0.9, Beta2: 0.999, Eps: 1e-8}
}

// Step implements Optimizer.
func (a *Adam) Step(params []*Param) {
	a.t++
	c1 := 1 - math.Pow(a.Beta1, float64(a.t))
	c2 := 1 - math.Pow(a.Beta2, float64(a.t))
	for _, p := range params {
		value := p.Value.Data
		grad := p.Grad.Data[:len(value)]
		m := p.Slot("adam_m").Data[:len(value)]
		v := p.Slot("adam_v").Data[:len(value)]
		for i := range value {
			g := grad[i]
			m[i] = a.Beta1*m[i] + (1-a.Beta1)*g
			v[i] = a.Beta2*v[i] + (1-a.Beta2)*g*g
			mhat := m[i] / c1
			vhat := v[i] / c2
			value[i] -= a.LR * mhat / (math.Sqrt(vhat) + a.Eps)
		}
	}
}

// Describe implements Optimizer.
func (a *Adam) Describe() string { return fmt.Sprintf("Adam(lr=%g)", a.LR) }
