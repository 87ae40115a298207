package metrics

import (
	"fmt"
	"testing"

	"acobe/internal/mathx"
	"acobe/internal/testkit"
)

// randomItems builds a labeled investigation list with priorities drawn from
// a small range (so ties occur and exercise the worst-case ordering) and at
// least one positive.
func randomItems(rng *mathx.RNG, n int) []Item {
	items := make([]Item, n)
	for i := range items {
		items[i] = Item{
			User:     fmt.Sprintf("u%03d", i),
			Priority: 1 + int(rng.Float64()*float64(n/2+1)),
			Positive: rng.Float64() < 0.3,
		}
	}
	items[int(rng.Float64()*float64(n))].Positive = true
	return items
}

// TestCurveInvariants checks the structural properties every evaluation must
// satisfy regardless of the list: curve points confined to the unit square
// and monotone along the investigation walk, bounded AUC/AP, and a
// FPsBeforeTP sequence that is non-decreasing with one entry per positive.
func TestCurveInvariants(t *testing.T) {
	rng := mathx.NewRNG(2021)
	for trial := 0; trial < 100; trial++ {
		items := randomItems(rng, 3+int(rng.Float64()*60))
		c, err := Evaluate(items)
		if err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}

		if len(c.ROC) != len(items)+1 {
			t.Fatalf("trial %d: %d ROC points for %d items", trial, len(c.ROC), len(items))
		}
		prev := Point{0, 0}
		for i, p := range c.ROC {
			if !testkit.WithinRange([]float64{p.X, p.Y}, 0, 1) {
				t.Fatalf("trial %d: ROC point %d = (%g, %g) outside unit square", trial, i, p.X, p.Y)
			}
			if p.X < prev.X || p.Y < prev.Y {
				t.Fatalf("trial %d: ROC walk not monotone at point %d: (%g,%g) after (%g,%g)",
					trial, i, p.X, p.Y, prev.X, prev.Y)
			}
			prev = p
		}
		last := c.ROC[len(c.ROC)-1]
		if last.Y != 1 {
			t.Fatalf("trial %d: ROC must end at TPR 1, got %g", trial, last.Y)
		}

		if len(c.PR) != c.Positives() {
			t.Fatalf("trial %d: %d PR points for %d positives", trial, len(c.PR), c.Positives())
		}
		prevRecall := 0.0
		for i, p := range c.PR {
			if !testkit.WithinRange([]float64{p.X, p.Y}, 0, 1) {
				t.Fatalf("trial %d: PR point %d = (%g, %g) outside unit square", trial, i, p.X, p.Y)
			}
			if p.X < prevRecall {
				t.Fatalf("trial %d: PR recall decreased at point %d", trial, i)
			}
			prevRecall = p.X
		}

		if !testkit.WithinRange([]float64{c.AUC}, 0, 1) {
			t.Fatalf("trial %d: AUC %g outside [0, 1]", trial, c.AUC)
		}
		if !testkit.WithinRange([]float64{c.AP}, 0, 1) || c.AP == 0 {
			t.Fatalf("trial %d: AP %g outside (0, 1]", trial, c.AP)
		}

		fps := c.FPsBeforeTP()
		if len(fps) != c.Positives() {
			t.Fatalf("trial %d: %d FP counts for %d positives", trial, len(fps), c.Positives())
		}
		if !testkit.NonDecreasingInts(fps) {
			t.Fatalf("trial %d: FPsBeforeTP not non-decreasing: %v", trial, fps)
		}
		if fps[len(fps)-1] > c.Negatives() {
			t.Fatalf("trial %d: %d FPs before last TP exceeds %d negatives",
				trial, fps[len(fps)-1], c.Negatives())
		}
	}
}

// TestConfusionAtTopKInvariants: at every cutoff the four cells partition
// the list, TP+FN equals the positives, and TP is non-decreasing in k.
func TestConfusionAtTopKInvariants(t *testing.T) {
	rng := mathx.NewRNG(2022)
	items := randomItems(rng, 40)
	c, err := Evaluate(items)
	if err != nil {
		t.Fatal(err)
	}
	prevTP := 0
	for k := -1; k <= len(items)+1; k++ {
		conf := c.ConfusionAtTopK(k)
		if conf.TP+conf.FP+conf.TN+conf.FN != len(items) {
			t.Fatalf("k=%d: cells sum to %d, want %d",
				k, conf.TP+conf.FP+conf.TN+conf.FN, len(items))
		}
		if conf.TP+conf.FN != c.Positives() {
			t.Fatalf("k=%d: TP+FN = %d, want %d positives", k, conf.TP+conf.FN, c.Positives())
		}
		if kk := clampK(k, len(items)); conf.TP+conf.FP != kk {
			t.Fatalf("k=%d: investigated %d users, want %d", k, conf.TP+conf.FP, kk)
		}
		if conf.TP < prevTP {
			t.Fatalf("k=%d: TP decreased %d → %d", k, prevTP, conf.TP)
		}
		prevTP = conf.TP
	}
}

func clampK(k, n int) int {
	if k < 0 {
		return 0
	}
	if k > n {
		return n
	}
	return k
}

// TestWorstCasePessimism pins the paper's tie handling: within one priority
// a false positive is always investigated before a true positive, so the
// perfect-tie list yields the most pessimistic FP count.
func TestWorstCasePessimism(t *testing.T) {
	items := []Item{
		{User: "tp", Priority: 1, Positive: true},
		{User: "fp1", Priority: 1},
		{User: "fp2", Priority: 1},
	}
	c, err := Evaluate(items)
	if err != nil {
		t.Fatal(err)
	}
	if fps := c.FPsBeforeTP(); len(fps) != 1 || fps[0] != 2 {
		t.Fatalf("FPsBeforeTP = %v, want [2] (all tied FPs listed first)", c.FPsBeforeTP())
	}
	perfect, err := Evaluate([]Item{
		{User: "tp", Priority: 1, Positive: true},
		{User: "fp1", Priority: 2},
	})
	if err != nil {
		t.Fatal(err)
	}
	if perfect.AUC != 1 || perfect.AP != 1 {
		t.Fatalf("untied perfect list: AUC %g AP %g, want 1 and 1", perfect.AUC, perfect.AP)
	}
}

// TestEvaluateRejectsDegenerateInput: the evaluator must refuse lists it
// cannot score rather than emitting NaN curves.
func TestEvaluateRejectsDegenerateInput(t *testing.T) {
	if _, err := Evaluate(nil); err == nil {
		t.Error("empty list: want error")
	}
	if _, err := Evaluate([]Item{{User: "u", Priority: 1}}); err == nil {
		t.Error("no positives: want error")
	}
}
