package metrics

import (
	"math"
	"testing"
	"testing/quick"

	"acobe/internal/mathx"
)

func TestOrderWorstCase(t *testing.T) {
	items := []Item{
		{User: "tp", Priority: 2, Positive: true},
		{User: "fp", Priority: 2, Positive: false},
		{User: "first", Priority: 1, Positive: false},
	}
	ordered := OrderWorstCase(items)
	if ordered[0].User != "first" {
		t.Errorf("priority 1 not first: %v", ordered)
	}
	// Within priority 2, the FP must precede the TP (worst case).
	if ordered[1].User != "fp" || ordered[2].User != "tp" {
		t.Errorf("tie not broken pessimistically: %v", ordered)
	}
}

func TestEvaluatePerfectRanking(t *testing.T) {
	items := []Item{
		{User: "bad", Priority: 1, Positive: true},
		{User: "n1", Priority: 2},
		{User: "n2", Priority: 3},
		{User: "n3", Priority: 4},
	}
	c, err := Evaluate(items)
	if err != nil {
		t.Fatal(err)
	}
	if c.AUC != 1 {
		t.Errorf("AUC = %g, want 1", c.AUC)
	}
	if c.AP != 1 {
		t.Errorf("AP = %g, want 1", c.AP)
	}
	if fps := c.FPsBeforeTP(); len(fps) != 1 || fps[0] != 0 {
		t.Errorf("FPsBeforeTP = %v", fps)
	}
}

func TestEvaluateWorstRanking(t *testing.T) {
	items := []Item{
		{User: "n1", Priority: 1},
		{User: "n2", Priority: 2},
		{User: "bad", Priority: 3, Positive: true},
	}
	c, err := Evaluate(items)
	if err != nil {
		t.Fatal(err)
	}
	if c.AUC != 0 {
		t.Errorf("AUC = %g, want 0", c.AUC)
	}
	if fps := c.FPsBeforeTP(); fps[0] != 2 {
		t.Errorf("FPsBeforeTP = %v", fps)
	}
}

func TestEvaluateHandComputedAUC(t *testing.T) {
	// Order: TP, FP, TP, FP → ROC points (0,.5) (0.5,.5) (0.5,1) (1,1);
	// area = 0.5*0.5 + 0.5*1 = 0.75.
	items := []Item{
		{User: "p1", Priority: 1, Positive: true},
		{User: "f1", Priority: 2},
		{User: "p2", Priority: 3, Positive: true},
		{User: "f2", Priority: 4},
	}
	c, err := Evaluate(items)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(c.AUC-0.75) > 1e-12 {
		t.Errorf("AUC = %g, want 0.75", c.AUC)
	}
	// AP = 0.5*1 (first TP at precision 1) + 0.5*(2/3).
	want := 0.5 + 0.5*2.0/3.0
	if math.Abs(c.AP-want) > 1e-12 {
		t.Errorf("AP = %g, want %g", c.AP, want)
	}
}

func TestEvaluateErrors(t *testing.T) {
	if _, err := Evaluate(nil); err == nil {
		t.Error("no error for empty list")
	}
	if _, err := Evaluate([]Item{{User: "n", Priority: 1}}); err == nil {
		t.Error("no error for zero positives")
	}
}

func TestConfusionAtTopK(t *testing.T) {
	items := []Item{
		{User: "p", Priority: 1, Positive: true},
		{User: "n1", Priority: 2},
		{User: "n2", Priority: 3},
	}
	c, err := Evaluate(items)
	if err != nil {
		t.Fatal(err)
	}
	conf := c.ConfusionAtTopK(1)
	if conf.TP != 1 || conf.FP != 0 || conf.TN != 2 || conf.FN != 0 {
		t.Errorf("confusion at k=1: %+v", conf)
	}
	if conf.Precision() != 1 || conf.Recall() != 1 || conf.F1() != 1 {
		t.Errorf("perfect cutoff metrics: p=%g r=%g f1=%g", conf.Precision(), conf.Recall(), conf.F1())
	}
	conf = c.ConfusionAtTopK(3)
	if conf.FP != 2 || conf.TN != 0 {
		t.Errorf("confusion at k=3: %+v", conf)
	}
	// Clamping.
	if c.ConfusionAtTopK(-1).TP != 0 {
		t.Error("negative k not clamped")
	}
	if c.ConfusionAtTopK(99).TP != 1 {
		t.Error("huge k not clamped")
	}
}

func TestConfusionZeroDenominators(t *testing.T) {
	var c Confusion
	if c.Precision() != 0 || c.Recall() != 0 || c.F1() != 0 {
		t.Error("zero confusion should yield zero metrics")
	}
}

func TestROCEndpointsAndMonotonicity(t *testing.T) {
	if err := quick.Check(func(seed uint64) bool {
		rng := mathx.NewRNG(seed)
		n := 4 + rng.Intn(40)
		items := make([]Item, n)
		pos := 0
		for i := range items {
			items[i] = Item{
				User:     string(rune('a'+i%26)) + string(rune('0'+i/26)),
				Priority: rng.Intn(10),
				Positive: rng.Bool(0.3),
			}
			if items[i].Positive {
				pos++
			}
		}
		if pos == 0 {
			items[0].Positive = true
		}
		c, err := Evaluate(items)
		if err != nil {
			return false
		}
		if c.AUC < 0 || c.AUC > 1 || c.AP < 0 || c.AP > 1 {
			return false
		}
		first, last := c.ROC[0], c.ROC[len(c.ROC)-1]
		if first.X != 0 || first.Y != 0 {
			return false
		}
		if math.Abs(last.Y-1) > 1e-12 {
			return false
		}
		for i := 1; i < len(c.ROC); i++ {
			if c.ROC[i].X < c.ROC[i-1].X-1e-12 || c.ROC[i].Y < c.ROC[i-1].Y-1e-12 {
				return false
			}
		}
		return true
	}, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

func TestPositivesNegativesCount(t *testing.T) {
	items := []Item{
		{User: "a", Priority: 1, Positive: true},
		{User: "b", Priority: 2},
		{User: "c", Priority: 3},
	}
	c, err := Evaluate(items)
	if err != nil {
		t.Fatal(err)
	}
	if c.Positives() != 1 || c.Negatives() != 2 {
		t.Errorf("counts %d/%d", c.Positives(), c.Negatives())
	}
}
