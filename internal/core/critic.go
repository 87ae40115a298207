// Package core implements ACOBE itself: the per-aspect ensemble of deep
// autoencoders over compound behavioral deviation matrices, and the
// anomaly-detection critic that turns per-aspect anomaly scores into an
// ordered investigation list (Algorithm 1 in the paper).
package core

import (
	"cmp"
	"slices"
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

	// One flat backing array for every user's rank row, and two scratch
	// slices of packed sort keys — (score, user) per aspect, then
	// (priority, rank sum, user) for the list: the sorts move the values
	// they compare instead of chasing an index into them, and the
	// allocation count does not depend on len(users).
	aspects := len(scoresByAspect)
	flat := make([]int, len(users)*aspects) // user u's ranks: flat[u*aspects:(u+1)*aspects]
	type scoreKey struct {
		score float64
		user  int
	}
	byScore := make([]scoreKey, len(users))
	for a, scores := range scoresByAspect {
		for u := range byScore {
			byScore[u] = scoreKey{scores[u], u}
		}
		// Descending by score; the stable sort leaves ties in user order.
		slices.SortStableFunc(byScore, func(x, y scoreKey) int {
			switch {
			case x.score > y.score:
				return -1
			case y.score > x.score:
				return 1
			}
			return 0
		})
		for pos, k := range byScore {
			flat[k.user*aspects+a] = pos + 1
		}
	}

	type listKey struct{ priority, sum, user int }
	order := make([]listKey, len(users))
	sorted := make([]int, aspects)
	for u := range users {
		copy(sorted, flat[u*aspects:(u+1)*aspects])
		sort.Ints(sorted)
		order[u] = listKey{sorted[n-1], sumInts(sorted), u}
	}
	slices.SortStableFunc(order, func(x, y listKey) int {
		if c := cmp.Compare(x.priority, y.priority); c != 0 {
			return c
		}
		return cmp.Compare(x.sum, y.sum)
	})
	out := make([]Ranked, len(users))
	for i, k := range order {
		u := k.user
		out[i] = Ranked{User: users[u], Ranks: flat[u*aspects : (u+1)*aspects : (u+1)*aspects], Priority: k.priority}
	}
	return out
}

func sumInts(xs []int) int {
	var s int
	for _, x := range xs {
		s += x
	}
	return s
}
