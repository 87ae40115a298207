// Package core implements ACOBE itself: the per-aspect ensemble of deep
// autoencoders over compound behavioral deviation matrices, and the
// anomaly-detection critic that turns per-aspect anomaly scores into an
// ordered investigation list (Algorithm 1 in the paper).
package core

import (
	"sort"
)

// Ranked is one row of the investigation list: a user, its per-aspect
// ranks (1 = most anomalous in that aspect), and the resulting priority
// (the N-th best rank; smaller is more anomalous).
type Ranked struct {
	User     string
	Ranks    []int
	Priority int
}

// Critic implements the paper's Algorithm 1. scoresByAspect[a][u] is user
// u's anomaly score in aspect a; n is the number of "votes" required (the
// paper evaluates N=3 as the default, with N=1 and N=2 as alternatives;
// n is clamped to the number of aspects). The returned list is sorted by
// priority (ascending), with deterministic tie-breaking by the sum of
// ranks and then user order.
func Critic(users []string, scoresByAspect [][]float64, n int) []Ranked {
	if len(users) == 0 || len(scoresByAspect) == 0 {
		return nil
	}
	if n < 1 {
		n = 1
	}
	if n > len(scoresByAspect) {
		n = len(scoresByAspect)
	}

	// One flat backing array for every user's rank row, and one scratch
	// row to sort a copy of each in: the allocation count does not depend
	// on len(users).
	aspects := len(scoresByAspect)
	flat := make([]int, len(users)*aspects) // user u's ranks: flat[u*aspects:(u+1)*aspects]
	order := make([]int, len(users))
	for a, scores := range scoresByAspect {
		for i := range order {
			order[i] = i
		}
		sort.SliceStable(order, func(i, j int) bool {
			return scores[order[i]] > scores[order[j]]
		})
		for pos, u := range order {
			flat[u*aspects+a] = pos + 1
		}
	}

	out := make([]Ranked, len(users))
	sorted := make([]int, aspects)
	for u, name := range users {
		ranks := flat[u*aspects : (u+1)*aspects : (u+1)*aspects]
		copy(sorted, ranks)
		sort.Ints(sorted)
		out[u] = Ranked{User: name, Ranks: ranks, Priority: sorted[n-1]}
	}
	sort.SliceStable(out, func(i, j int) bool {
		if out[i].Priority != out[j].Priority {
			return out[i].Priority < out[j].Priority
		}
		return sumInts(out[i].Ranks) < sumInts(out[j].Ranks)
	})
	return out
}

func sumInts(xs []int) int {
	var s int
	for _, x := range xs {
		s += x
	}
	return s
}
