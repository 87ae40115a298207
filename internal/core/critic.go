// Package core implements ACOBE itself: the per-aspect ensemble of deep
// autoencoders over compound behavioral deviation matrices, and the
// anomaly-detection critic that turns per-aspect anomaly scores into an
// ordered investigation list (Algorithm 1 in the paper).
package core

import (
	"cmp"
	"slices"
	"sort"
	"sync"
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
// n is clamped to the number of aspects). Within an aspect, users rank by
// score, highest first, with ties (+0 and -0 among them) in user order; a
// NaN score ranks after every number, NaNs in user order. The returned
// list is sorted by priority (ascending), with deterministic tie-breaking
// by the sum of ranks and then user order.
func Critic(users []string, scoresByAspect [][]float64, n int) []Ranked {
	sc := rankScratches.Get().(*rankScratch)
	list := sc.critic(users, scoresByAspect, n)
	rankScratches.Put(sc)
	return list
}

// rankScratch is the working memory of a rank: the aggregate's gathered
// and sorted columns, the aggregated score rows and the critic's sort
// keys. The list a rank returns owns none of it, so it is pooled, and a
// rank allocates little more than its list.
type rankScratch struct {
	col, sortCol, rows []float64
	byAspect           [][]float64
	byScore            []scoreKey
	order              []listKey
	sorted             []int
}

var rankScratches = sync.Pool{New: func() any { return new(rankScratch) }}

// scoreKey and listKey are the critic's packed sort keys: (score, user)
// per aspect, then (priority, rank sum, user) for the list. The sorts
// move the values they compare instead of chasing an index into them, and
// each key ends in its user, so no two compare equal: the unstable sorts
// then order them the one way a stable sort would.
type (
	scoreKey struct {
		score float64
		user  int
	}
	listKey struct{ priority, sum, user int }
)

// resize returns buf with length n, reallocating only when it is too
// small. The contents are not cleared.
func resize[T any](buf []T, n int) []T {
	if cap(buf) < n {
		return make([]T, n)
	}
	return buf[:n]
}

// critic is Critic on sc's keys.
func (sc *rankScratch) critic(users []string, scoresByAspect [][]float64, n int) []Ranked {
	if len(users) == 0 || len(scoresByAspect) == 0 {
		return nil
	}
	if n < 1 {
		n = 1
	}
	if n > len(scoresByAspect) {
		n = len(scoresByAspect)
	}

	// One flat backing array for every user's rank row, which the list
	// keeps; the allocation count does not depend on len(users).
	aspects := len(scoresByAspect)
	flat := make([]int, len(users)*aspects) // user u's ranks: flat[u*aspects:(u+1)*aspects]
	sc.byScore = resize(sc.byScore, len(users))
	byScore := sc.byScore
	for a, scores := range scoresByAspect {
		// The numbers go first, descending, ties in user order; the NaNs
		// follow in user order, so the comparator sees no NaN.
		nums := 0
		for u, v := range scores[:len(users)] {
			if v == v {
				byScore[nums] = scoreKey{v, u}
				nums++
			}
		}
		nan := nums
		for u, v := range scores[:len(users)] {
			if v != v {
				byScore[nan] = scoreKey{v, u}
				nan++
			}
		}
		slices.SortFunc(byScore[:nums], func(x, y scoreKey) int {
			switch {
			case x.score > y.score:
				return -1
			case x.score < y.score:
				return 1
			}
			return cmp.Compare(x.user, y.user)
		})
		for pos, k := range byScore {
			flat[k.user*aspects+a] = pos + 1
		}
	}

	sc.order, sc.sorted = resize(sc.order, len(users)), resize(sc.sorted, aspects)
	order, sorted := sc.order, sc.sorted
	for u := range users {
		copy(sorted, flat[u*aspects:(u+1)*aspects])
		sort.Ints(sorted)
		order[u] = listKey{sorted[n-1], sumInts(sorted), u}
	}
	slices.SortFunc(order, func(x, y listKey) int {
		if c := cmp.Compare(x.priority, y.priority); c != 0 {
			return c
		}
		if c := cmp.Compare(x.sum, y.sum); c != 0 {
			return c
		}
		return cmp.Compare(x.user, y.user)
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
