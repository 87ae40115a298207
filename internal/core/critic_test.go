package core

import (
	"fmt"
	"math"
	"reflect"
	"runtime"
	"sort"
	"testing"
	"testing/quick"
	"unsafe"

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
// populations with many tied scores and an all-zero day, whose median
// the 1e-12 floor replaces. The served form, the column kernel over
// DayBlocks with their memoised medians, is held to the same reference.
func TestRankingMatchesReference(t *testing.T) {
	rng := mathx.NewRNG(91)
	for _, users := range []int{1, 2, 7, 64, 501} {
		for _, aspects := range []int{1, 3} {
			names, series := rankingInputs(rng, aspects, users, 5)
			for u := range series[0].Scores {
				series[0].Scores[u][2] = 0
			}
			blocks := DayBlocks(series)
			agg := make([][]float64, aspects)
			for a, s := range series {
				agg[a] = AggregateRelativeMax(s)
				fromBlocks := relativeMaxBlocks(make([]float64, users), blocks, a, aspects)
				want := referenceRelativeMax(s)
				for u := range want {
					if math.Float64bits(agg[a][u]) != math.Float64bits(want[u]) {
						t.Fatalf("users=%d aspect %d user %d: relative max %v, want bit-identical %v", users, a, u, agg[a][u], want[u])
					}
					if math.Float64bits(fromBlocks[u]) != math.Float64bits(want[u]) {
						t.Fatalf("users=%d aspect %d user %d: relative max over day blocks %v, want bit-identical %v", users, a, u, fromBlocks[u], want[u])
					}
				}
			}
			for n := 1; n <= aspects; n++ {
				want := referenceCritic(names, agg, n)
				if got := Critic(names, agg, n); !reflect.DeepEqual(got, want) {
					t.Fatalf("users=%d aspects=%d N=%d: critic list differs from the reference", users, aspects, n)
				}
				if got := RankDayBlocks(names, blocks, n); !reflect.DeepEqual(got, want) {
					t.Fatalf("users=%d aspects=%d N=%d: the day-block rank differs from the reference", users, aspects, n)
				}
			}
		}
	}
}

// TestDayBlocksLayout: a day block holds each aspect's column in user
// order and, after them, each column's median as the reference computes
// it, floored for an all-zero day.
func TestDayBlocksLayout(t *testing.T) {
	series := []*ScoreSeries{
		{From: 3, To: 4, Scores: [][]float64{{4, 0}, {1, 0}, {2, 0}}},
		{From: 3, To: 4, Scores: [][]float64{{0.5, 6}, {0.25, 7}, {0.75, 9}}},
	}
	want := []DayBlock{
		{4, 1, 2, 0.5, 0.25, 0.75, 2, 0.5},
		{0, 0, 0, 6, 7, 9, 1e-12, 7},
	}
	if got := DayBlocks(series); !reflect.DeepEqual(got, want) {
		t.Fatalf("DayBlocks = %v, want %v", got, want)
	}
}

// TestRankBlocksMatchesRankSeries: a detector ranks a window held as day
// blocks exactly as it ranks the series they were built from.
func TestRankBlocksMatchesRankSeries(t *testing.T) {
	names, series := rankingInputs(mathx.NewRNG(17), 3, 64, 7)
	d := &Detector{cfg: Config{N: 2}, users: names}
	if got, want := d.RankBlocks(DayBlocks(series)), d.RankSeries(series); !reflect.DeepEqual(got, want) {
		t.Fatal("RankBlocks differs from RankSeries")
	}
}

// TestCriticOrdersSpecialScores: within an aspect a NaN score ranks after
// every number, ±0 tie in user order and +Inf leads, so one NaN cannot
// reorder the other users (the comparator is a strict weak order).
func TestCriticOrdersSpecialScores(t *testing.T) {
	nan, inf := math.NaN(), math.Inf(1)
	negZero := math.Copysign(0, -1)
	users := []string{"a", "b", "c", "d", "e"}
	for _, tc := range []struct {
		name   string
		scores []float64
		want   string // users in list order
	}{
		{"one NaN", []float64{1, nan, 2, 3, 0}, "dcaeb"},
		{"NaN first", []float64{nan, 1, 2, 3, 4}, "edcba"},
		{"two NaNs", []float64{nan, 1, nan, 3, 2}, "debac"},
		{"all NaN", []float64{nan, nan, nan, nan, nan}, "abcde"},
		{"signed zeros tie", []float64{0, negZero, 1, negZero, 0}, "cabde"},
		{"+Inf leads", []float64{1, inf, nan, inf, 2}, "bdeac"},
		{"-Inf before NaN", []float64{math.Inf(-1), nan, 0, 1, negZero}, "dceab"},
	} {
		list := Critic(users, [][]float64{tc.scores}, 1)
		got := ""
		for pos, r := range list {
			got += r.User
			if r.Ranks[0] != pos+1 || r.Priority != pos+1 {
				t.Errorf("%s: %s has rank %d and priority %d at position %d", tc.name, r.User, r.Ranks[0], r.Priority, pos+1)
			}
		}
		if got != tc.want {
			t.Errorf("%s: Critic(%v) = %s, want %s", tc.name, tc.scores, got, tc.want)
		}
	}
}

// TestRankingAllocationsIndependentOfUsers guards the warm rank path: the
// aggregate and the critic allocate a fixed number of slices however many
// users they rank (a served rank runs them hundreds of times a second).
// Their scratch is pooled, so the counts are not asserted under the race
// detector, which makes sync.Pool drop items.
func TestRankingAllocationsIndependentOfUsers(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector makes sync.Pool drop items")
	}
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

// TestCriticAllocatesOnlyItsList guards the bytes of a warm rank: the
// critic's sort keys live in pooled scratch, so what a call allocates is
// the list it returns and the rank rows the list points into.
func TestCriticAllocatesOnlyItsList(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector makes sync.Pool drop items")
	}
	const users, aspects, runs = 4096, 3, 10
	names, series := rankingInputs(mathx.NewRNG(5), aspects, users, 7)
	scores := make([][]float64, len(series))
	for a, s := range series {
		scores[a] = AggregateRelativeMax(s)
	}
	Critic(names, scores, 2) // fills the pool
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < runs; i++ {
		Critic(names, scores, 2)
	}
	runtime.ReadMemStats(&after)
	perCall := (after.TotalAlloc - before.TotalAlloc) / runs
	list := uint64(users) * uint64(unsafe.Sizeof(Ranked{})+aspects*unsafe.Sizeof(0))
	// The slack covers one refill of the pool if a collection empties it.
	if perCall > list+list/8 {
		t.Errorf("Critic allocated %d B per call at %d users; its list and rank rows are %d B", perCall, users, list)
	}
}
