package core

import (
	"fmt"
	"math"
	"reflect"
	"sort"
	"testing"
	"testing/quick"

	"acobe/internal/cert"
	"acobe/internal/mathx"
)

func TestCriticPaperExample(t *testing.T) {
	// The paper's example: with N=2, a user ranked 3rd, 5th, 4th across
	// three aspects gets priority 4 (its 2nd-best rank).
	users := []string{"a", "b", "c", "d", "e"}
	// Craft scores so that user "a" ranks 3rd, 5th, 4th.
	scores := [][]float64{
		{0.3, 0.5, 0.4, 0.2, 0.1}, // aspect 1: a is 3rd
		{0.1, 0.5, 0.4, 0.3, 0.2}, // aspect 2: a is 5th
		{0.2, 0.5, 0.4, 0.3, 0.1}, // aspect 3: a is 4th
	}
	list := Critic(users, scores, 2)
	for _, r := range list {
		if r.User == "a" {
			if r.Priority != 4 {
				t.Errorf("priority = %d, want 4", r.Priority)
			}
			if r.Ranks[0] != 3 || r.Ranks[1] != 5 || r.Ranks[2] != 4 {
				t.Errorf("ranks = %v, want [3 5 4]", r.Ranks)
			}
			return
		}
	}
	t.Fatal("user a missing from list")
}

func TestCriticN1TakesBestRank(t *testing.T) {
	users := []string{"x", "y"}
	scores := [][]float64{
		{1.0, 0.5}, // x 1st
		{0.1, 0.9}, // y 1st
	}
	list := Critic(users, scores, 1)
	// Both users have a best rank of 1 → same priority; order must be
	// deterministic (tie broken by rank sum: x has 1+2, y has 2+1 — still
	// tied, then stable user order).
	if list[0].Priority != 1 || list[1].Priority != 1 {
		t.Errorf("priorities %d, %d", list[0].Priority, list[1].Priority)
	}
}

func TestCriticNClamped(t *testing.T) {
	users := []string{"a", "b"}
	scores := [][]float64{{1, 0}}
	// N beyond aspect count clamps; N below 1 clamps.
	for _, n := range []int{-1, 0, 5} {
		list := Critic(users, scores, n)
		if len(list) != 2 {
			t.Fatalf("N=%d produced %d entries", n, len(list))
		}
	}
}

func TestCriticEmpty(t *testing.T) {
	if Critic(nil, nil, 3) != nil {
		t.Error("empty input should give nil")
	}
	if Critic([]string{"a"}, nil, 1) != nil {
		t.Error("no aspects should give nil")
	}
}

func TestCriticTopScorerIsFirst(t *testing.T) {
	if err := quick.Check(func(seed uint64) bool {
		rng := mathx.NewRNG(seed)
		n := 5 + rng.Intn(30)
		users := make([]string, n)
		scores := make([][]float64, 3)
		for a := range scores {
			scores[a] = make([]float64, n)
		}
		for i := range users {
			users[i] = string(rune('A'+i%26)) + string(rune('a'+(i/26)%26))
		}
		// Make user 0 the top scorer in every aspect.
		for a := range scores {
			for i := 1; i < n; i++ {
				scores[a][i] = rng.Float64() * 0.9
			}
			scores[a][0] = 1.0
		}
		list := Critic(users, scores, 3)
		return list[0].User == users[0] && list[0].Priority == 1
	}, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

func TestCriticPrioritiesAreSorted(t *testing.T) {
	if err := quick.Check(func(seed uint64) bool {
		rng := mathx.NewRNG(seed)
		n := 3 + rng.Intn(20)
		users := make([]string, n)
		scores := make([][]float64, 2)
		for a := range scores {
			scores[a] = make([]float64, n)
			for i := range scores[a] {
				scores[a][i] = rng.Float64()
			}
		}
		for i := range users {
			users[i] = string(rune('a' + i%26))
		}
		list := Critic(users, scores, 2)
		for i := 1; i < len(list); i++ {
			if list[i].Priority < list[i-1].Priority {
				return false
			}
		}
		return len(list) == n
	}, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

func TestCriticDeterministic(t *testing.T) {
	users := []string{"a", "b", "c", "d"}
	scores := [][]float64{{0.5, 0.5, 0.5, 0.5}, {0.1, 0.1, 0.1, 0.1}}
	l1 := Critic(users, scores, 2)
	l2 := Critic(users, scores, 2)
	for i := range l1 {
		if l1[i].User != l2[i].User {
			t.Fatal("critic output not deterministic under ties")
		}
	}
}

func TestAggregateMax(t *testing.T) {
	s := &ScoreSeries{From: 0, To: 2, Scores: [][]float64{
		{0.1, 0.9, 0.3},
		{0.5, 0.2, 0.4},
	}}
	got := AggregateMax(s)
	if got[0] != 0.9 || got[1] != 0.5 {
		t.Errorf("AggregateMax = %v", got)
	}
}

func TestAggregateRelativeMax(t *testing.T) {
	// Day 1 is a "busy day": everyone scores high — relative aggregation
	// must not reward it.
	s := &ScoreSeries{From: 0, To: 1, Scores: [][]float64{
		{0.1, 1.0}, // user 0 follows the crowd on the busy day
		{0.1, 1.0},
		{0.1, 1.0},
		{0.4, 1.0}, // user 3 stands out on the quiet day
	}}
	got := AggregateRelativeMax(s)
	if got[3] <= got[0] {
		t.Errorf("stand-out user not ranked above crowd-followers: %v", got)
	}
}

func TestAggregateRelativeMaxZeroMedian(t *testing.T) {
	s := &ScoreSeries{From: 0, To: 0, Scores: [][]float64{{0}, {0}, {1}}}
	got := AggregateRelativeMax(s)
	for _, v := range got {
		if v < 0 {
			t.Errorf("negative relative score %g", v)
		}
	}
	if got[2] <= got[0] {
		t.Error("nonzero scorer not above zero scorers")
	}
}

// referenceCritic is Algorithm 1 as first written — a rank row and a
// sorted copy allocated per user — kept as the oracle the flat-array
// Critic must reproduce exactly, ties included.
func referenceCritic(users []string, scoresByAspect [][]float64, n int) []Ranked {
	if len(users) == 0 || len(scoresByAspect) == 0 {
		return nil
	}
	n = max(1, min(n, len(scoresByAspect)))
	ranks := make([][]int, len(users))
	for u := range users {
		ranks[u] = make([]int, len(scoresByAspect))
	}
	order := make([]int, len(users))
	for a, scores := range scoresByAspect {
		for i := range order {
			order[i] = i
		}
		sort.SliceStable(order, func(i, j int) bool { return scores[order[i]] > scores[order[j]] })
		for pos, u := range order {
			ranks[u][a] = pos + 1
		}
	}
	out := make([]Ranked, len(users))
	for u, name := range users {
		sorted := append([]int(nil), ranks[u]...)
		sort.Ints(sorted)
		out[u] = Ranked{User: name, Ranks: ranks[u], Priority: sorted[n-1]}
	}
	sort.SliceStable(out, func(i, j int) bool {
		if out[i].Priority != out[j].Priority {
			return out[i].Priority < out[j].Priority
		}
		return sumInts(out[i].Ranks) < sumInts(out[j].Ranks)
	})
	return out
}

// referenceRelativeMax is AggregateRelativeMax over mathx.Percentile's
// allocate-copy-sort median, the formulation the in-place sort replaced.
func referenceRelativeMax(s *ScoreSeries) []float64 {
	out := make([]float64, len(s.Scores))
	col := make([]float64, len(s.Scores))
	for d := 0; d < s.DaysCovered(); d++ {
		for u := range s.Scores {
			col[u] = s.Scores[u][d]
		}
		median := mathx.Percentile(col, 50)
		if median <= 0 {
			median = 1e-12
		}
		for u := range s.Scores {
			out[u] = max(out[u], s.Scores[u][d]/median)
		}
	}
	return out
}

// rankingInputs draws a users × days series per aspect with a coarse value
// grid, so ties (the order-sensitive case) are common.
func rankingInputs(rng *mathx.RNG, aspects, users, days int) ([]string, []*ScoreSeries) {
	names := make([]string, users)
	for u := range names {
		names[u] = fmt.Sprintf("u%05d", u)
	}
	series := make([]*ScoreSeries, aspects)
	for a := range series {
		s := &ScoreSeries{From: 10, To: cert.Day(10 + days - 1), Scores: make([][]float64, users)}
		for u := range s.Scores {
			s.Scores[u] = make([]float64, days)
			for d := range s.Scores[u] {
				s.Scores[u][d] = float64(rng.Intn(40)) / 8
			}
		}
		series[a] = s
	}
	return names, series
}

// TestRankingMatchesReference: the allocation-light aggregate and critic
// return exactly what the formulations they replaced return — the
// aggregate bit for bit, the critic row for row — on even and odd
// populations with many tied scores.
func TestRankingMatchesReference(t *testing.T) {
	rng := mathx.NewRNG(91)
	for _, users := range []int{1, 2, 7, 64, 501} {
		for _, aspects := range []int{1, 3} {
			names, series := rankingInputs(rng, aspects, users, 5)
			agg := make([][]float64, aspects)
			for a, s := range series {
				agg[a] = AggregateRelativeMax(s)
				want := referenceRelativeMax(s)
				for u := range want {
					if math.Float64bits(agg[a][u]) != math.Float64bits(want[u]) {
						t.Fatalf("users=%d aspect %d user %d: relative max %v, want bit-identical %v", users, a, u, agg[a][u], want[u])
					}
				}
			}
			for n := 1; n <= aspects; n++ {
				if got, want := Critic(names, agg, n), referenceCritic(names, agg, n); !reflect.DeepEqual(got, want) {
					t.Fatalf("users=%d aspects=%d N=%d: critic list differs from the reference", users, aspects, n)
				}
			}
		}
	}
}

// TestRankingAllocationsIndependentOfUsers guards the warm rank path: the
// aggregate and the critic allocate a fixed number of slices however many
// users they rank (a served rank runs them hundreds of times a second).
func TestRankingAllocationsIndependentOfUsers(t *testing.T) {
	allocs := func(users int) (agg, critic float64) {
		names, series := rankingInputs(mathx.NewRNG(5), 3, users, 7)
		scores := make([][]float64, len(series))
		for a, s := range series {
			scores[a] = AggregateRelativeMax(s)
		}
		agg = testing.AllocsPerRun(10, func() { AggregateRelativeMax(series[0]) })
		critic = testing.AllocsPerRun(10, func() { Critic(names, scores, 2) })
		return agg, critic
	}
	smallAgg, smallCritic := allocs(16)
	bigAgg, bigCritic := allocs(4096)
	if bigAgg != smallAgg || bigAgg > 3 {
		t.Errorf("AggregateRelativeMax: %v allocations at 4096 users, %v at 16; want the same, at most 3", bigAgg, smallAgg)
	}
	if bigCritic != smallCritic || bigCritic > 16 {
		t.Errorf("Critic: %v allocations at 4096 users, %v at 16; want the same small constant", bigCritic, smallCritic)
	}
}
