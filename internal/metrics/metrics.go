// Package metrics evaluates ordered investigation lists: ROC curves and
// AUC, precision-recall curves and average precision, F1 scores, and the
// paper's "false positives listed before the k-th true positive" counts.
// Following the paper, ties in priority are resolved pessimistically: a
// false positive sharing a priority with a true positive is listed first,
// illustrating the worst-case investigation order.
package metrics

import (
	"fmt"
	"sort"
)

// Item is one entry of an investigation list: a user with its priority
// (smaller = investigated earlier) and ground-truth label.
type Item struct {
	User     string
	Priority int
	Positive bool
}

// OrderWorstCase sorts items by priority ascending, placing false
// positives before true positives within equal priorities (the paper's
// worst-case tie-breaking), then by user for determinism.
func OrderWorstCase(items []Item) []Item {
	out := append([]Item(nil), items...)
	sort.SliceStable(out, func(i, j int) bool {
		if out[i].Priority != out[j].Priority {
			return out[i].Priority < out[j].Priority
		}
		if out[i].Positive != out[j].Positive {
			return !out[i].Positive // negatives (FPs) first
		}
		return out[i].User < out[j].User
	})
	return out
}

// Point is one point of a ROC or PR curve.
type Point struct {
	X, Y float64
}

// Confusion holds counts at one investigation cutoff.
type Confusion struct {
	TP, FP, TN, FN int
}

// Precision returns TP/(TP+FP), zero when undefined.
func (c Confusion) Precision() float64 { return ratio(c.TP, c.TP+c.FP) }

// Recall returns TP/(TP+FN), zero when undefined.
func (c Confusion) Recall() float64 { return ratio(c.TP, c.TP+c.FN) }

// F1 returns the harmonic mean of precision and recall, zero when
// undefined.
func (c Confusion) F1() float64 {
	p, r := c.Precision(), c.Recall()
	if p+r == 0 {
		return 0
	}
	return 2 * p * r / (p + r)
}

func ratio(num, den int) float64 {
	if den == 0 {
		return 0
	}
	return float64(num) / float64(den)
}

// Curves computes ROC and PR curves by walking the worst-case-ordered list
// from top to bottom, emitting one point per investigated user.
type Curves struct {
	Ordered []Item
	ROC     []Point // (FPR, TPR), starts at (0,0)
	PR      []Point // (recall, precision)
	AUC     float64 // area under ROC (trapezoid)
	AP      float64 // average precision (step-wise area under PR)

	positives int
	negatives int
}

// Evaluate builds the curves from an investigation list.
func Evaluate(items []Item) (*Curves, error) {
	if len(items) == 0 {
		return nil, fmt.Errorf("metrics: empty investigation list")
	}
	c := &Curves{Ordered: OrderWorstCase(items)}
	for _, it := range c.Ordered {
		if it.Positive {
			c.positives++
		} else {
			c.negatives++
		}
	}
	if c.positives == 0 {
		return nil, fmt.Errorf("metrics: no positive cases among %d items", len(items))
	}

	c.ROC = append(c.ROC, Point{0, 0})
	tp, fp := 0, 0
	prevRecall := 0.0
	for _, it := range c.Ordered {
		if it.Positive {
			tp++
		} else {
			fp++
		}
		tpr := float64(tp) / float64(c.positives)
		fpr := 0.0
		if c.negatives > 0 {
			fpr = float64(fp) / float64(c.negatives)
		}
		c.ROC = append(c.ROC, Point{fpr, tpr})
		if it.Positive {
			precision := float64(tp) / float64(tp+fp)
			recall := tpr
			c.PR = append(c.PR, Point{recall, precision})
			c.AP += (recall - prevRecall) * precision
			prevRecall = recall
		}
	}
	// AUC by trapezoid over the ROC points.
	for i := 1; i < len(c.ROC); i++ {
		dx := c.ROC[i].X - c.ROC[i-1].X
		c.AUC += dx * (c.ROC[i].Y + c.ROC[i-1].Y) / 2
	}
	return c, nil
}

// Positives returns the number of ground-truth positives.
func (c *Curves) Positives() int { return c.positives }

// Negatives returns the number of ground-truth negatives.
func (c *Curves) Negatives() int { return c.negatives }

// FPsBeforeTP returns, for each k in 1..positives, how many false
// positives appear before the k-th true positive in the worst-case order —
// the numbers the paper reports alongside Figure 6(a).
func (c *Curves) FPsBeforeTP() []int {
	var out []int
	fp := 0
	for _, it := range c.Ordered {
		if it.Positive {
			out = append(out, fp)
		} else {
			fp++
		}
	}
	return out
}

// ConfusionAtTopK returns the confusion counts when exactly the first k
// entries of the worst-case order are investigated (marked positive).
func (c *Curves) ConfusionAtTopK(k int) Confusion {
	if k < 0 {
		k = 0
	}
	if k > len(c.Ordered) {
		k = len(c.Ordered)
	}
	var conf Confusion
	for i, it := range c.Ordered {
		investigated := i < k
		switch {
		case investigated && it.Positive:
			conf.TP++
		case investigated && !it.Positive:
			conf.FP++
		case !investigated && it.Positive:
			conf.FN++
		default:
			conf.TN++
		}
	}
	return conf
}
