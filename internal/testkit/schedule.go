package testkit

import (
	"math/rand"
	"sort"
)

// Arrivals drives one random legal arrival order of a multi-day event set
// — counts[d] events on day d — through an extractor-like consumer. Every
// event gets the sort key day + noise, so days arrive roughly in order but
// overlap their neighbours by a spread drawn per run, from none to
// everything at once. Events are applied in batches of random size; after
// each batch `between` runs (with the batch's ordinal), then the next day
// closes, with some probability, as soon as all its events have arrived —
// a close never precedes its day's events. Every day is closed by the end.
func Arrivals(rng *rand.Rand, counts []int, apply func(day, i int), closeDay func(day int), between func(step int)) {
	type ref struct {
		d, i int
		key  float64
	}
	days := len(counts)
	spread := []float64{0, 0.8, 2.5, float64(days)}[rng.Intn(4)]
	var order []ref
	left := append([]int(nil), counts...)
	for d, n := range counts {
		for i := 0; i < n; i++ {
			order = append(order, ref{d, i, float64(d) + rng.Float64()*(1+spread)})
		}
	}
	sort.SliceStable(order, func(a, b int) bool { return order[a].key < order[b].key })
	next := 0 // first day not yet closed
	for step := 0; len(order) > 0; step++ {
		for k := min(1+rng.Intn(50), len(order)); k > 0; k-- {
			apply(order[0].d, order[0].i)
			left[order[0].d]--
			order = order[1:]
		}
		between(step)
		for next < days && left[next] == 0 && rng.Intn(3) > 0 {
			closeDay(next)
			next++
		}
	}
	for ; next < days; next++ {
		closeDay(next)
	}
}
