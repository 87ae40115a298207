package nn

// Adadelta implements Zeiler's Adadelta, the optimizer the paper trains
// with and the one Fit runs. Defaults match tf.keras.optimizers.Adadelta:
// rho=0.95, eps=1e-7, lr=1 (the canonical Adadelta has no learning rate;
// keras multiplies the update by lr, defaulting to 0.001 in TF2 — we
// default to 1.0, which is the original algorithm and converges far faster
// on these small models).
type Adadelta struct {
	LR  float64
	Rho float64
	Eps float64
}

// NewAdadelta returns an Adadelta optimizer with canonical parameters.
func NewAdadelta() *Adadelta {
	return &Adadelta{LR: 1.0, Rho: 0.95, Eps: 1e-7}
}

// Step applies one update to every parameter from its accumulated
// gradient and leaves the gradients untouched (the trainer zeroes them).
// Every weight gets the expressions of adadeltaStep, four weights to a
// vector where the CPU has AVX.
func (a *Adadelta) Step(params []*Param) {
	for _, p := range params {
		if p.accGrad == nil {
			p.accGrad = make([]float64, len(p.Value.Data))
			p.accUpdate = make([]float64, len(p.Value.Data))
		}
		adadeltaStep(p.Value.Data, p.Grad.Data, p.accGrad, p.accUpdate, a.Rho, 1-a.Rho, a.Eps, a.LR)
	}
}
