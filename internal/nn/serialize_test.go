package nn

import (
	"bytes"
	"testing"

	"acobe/internal/mathx"
)

// FuzzModelLoad feeds Load arbitrary bytes. Every input must either be
// refused or give a network that runs a zero batch of its input width
// through the inference plan without panicking, and, when it gives back
// that width, scores it. The corpus is seeded with a small saved model.
func FuzzModelLoad(f *testing.F) {
	rng := mathx.NewRNG(1)
	seed := NewNetwork(
		NewDense(6, 4, rng), NewBatchNorm(4), NewActivation(ActReLU),
		NewDense(4, 6, rng), NewActivation(ActSigmoid),
	)
	var buf bytes.Buffer
	if err := seed.Save(&buf); err != nil {
		f.Fatal(err)
	}
	f.Add(buf.Bytes())
	f.Fuzz(func(t *testing.T, data []byte) {
		net, err := Load(bytes.NewReader(data))
		if err != nil {
			return
		}
		x := NewMatrix(2, net.Layers[0].(*Dense).In)
		ws := net.NewWorkspace()
		if out := net.ForwardBatchInto(ws, x); out.Cols == x.Cols {
			if scores := net.ReconstructionErrorsWS(ws, x, nil); len(scores) != x.Rows {
				t.Fatalf("%d scores for %d rows", len(scores), x.Rows)
			}
		}
	})
}
