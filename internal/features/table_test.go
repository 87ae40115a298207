package features

import (
	"fmt"
	"strings"
	"testing"
	"testing/quick"

	"acobe/internal/cert"
	"acobe/internal/mathx"
)

func newTestTable(t *testing.T) *Table {
	t.Helper()
	tab, err := NewTable([]string{"u1", "u2", "u3"}, []string{"f1", "f2"}, 2, 10, 19)
	if err != nil {
		t.Fatal(err)
	}
	return tab
}

func TestNewTableValidation(t *testing.T) {
	if _, err := NewTable(nil, []string{"f"}, 2, 0, 1); err == nil {
		t.Error("no error for empty users")
	}
	if _, err := NewTable([]string{"u"}, nil, 2, 0, 1); err == nil {
		t.Error("no error for empty features")
	}
	if _, err := NewTable([]string{"u"}, []string{"f"}, 0, 0, 1); err == nil {
		t.Error("no error for zero frames")
	}
	if _, err := NewTable([]string{"u"}, []string{"f"}, 2, 5, 4); err == nil {
		t.Error("no error for inverted span")
	}
	if _, err := NewTable([]string{"u", "u"}, []string{"f"}, 2, 0, 1); err == nil {
		t.Error("no error for duplicate users")
	}
	if _, err := NewTable([]string{"u"}, []string{"f", "f"}, 2, 0, 1); err == nil {
		t.Error("no error for duplicate features")
	}
}

func TestAddAtSeries(t *testing.T) {
	tab := newTestTable(t)
	tab.Add(1, 0, 1, 12, 3)
	tab.Add(1, 0, 1, 12, 2)
	if got := tab.At(1, 0, 1, 12); got != 5 {
		t.Errorf("At = %g, want 5 (accumulated)", got)
	}
	series := tab.Series(1, 0, 1)
	if len(series) != 10 {
		t.Fatalf("series length %d", len(series))
	}
	if series[2] != 5 {
		t.Errorf("series[2] = %g", series[2])
	}
}

func TestOutOfSpanIgnored(t *testing.T) {
	tab := newTestTable(t)
	tab.Add(0, 0, 0, 9, 1)  // before span
	tab.Add(0, 0, 0, 20, 1) // after span
	if tab.At(0, 0, 0, 9) != 0 || tab.At(0, 0, 0, 20) != 0 {
		t.Error("out-of-span reads not zero")
	}
	for _, v := range tab.Series(0, 0, 0) {
		if v != 0 {
			t.Error("out-of-span add leaked into the table")
		}
	}
}

func TestIndexLookups(t *testing.T) {
	tab := newTestTable(t)
	if tab.UserIndex("u2") != 1 || tab.UserIndex("nope") != -1 {
		t.Error("user index lookup wrong")
	}
	if tab.FeatureIndex("f2") != 1 || tab.FeatureIndex("nope") != -1 {
		t.Error("feature index lookup wrong")
	}
	if tab.Days() != 10 || tab.Frames() != 2 {
		t.Error("dimension getters wrong")
	}
}

// TestCellIsolation verifies the flat layout never aliases distinct cells.
func TestCellIsolation(t *testing.T) {
	tab := newTestTable(t)
	type cell struct{ u, f, frame, day int }
	if err := quick.Check(func(seed uint64) bool {
		r := mathx.NewRNG(seed)
		a := cell{r.Intn(3), r.Intn(2), r.Intn(2), 10 + r.Intn(10)}
		b := cell{r.Intn(3), r.Intn(2), r.Intn(2), 10 + r.Intn(10)}
		if a == b {
			return true
		}
		before := tab.At(b.u, b.f, b.frame, cert.Day(b.day))
		tab.Add(a.u, a.f, a.frame, cert.Day(a.day), 1)
		return tab.At(b.u, b.f, b.frame, cert.Day(b.day)) == before
	}, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

func TestGroupTable(t *testing.T) {
	tab := newTestTable(t)
	tab.Add(0, 0, 0, 10, 2) // u1: 2
	tab.Add(1, 0, 0, 10, 4) // u2: 4
	tab.Add(2, 0, 0, 10, 9) // u3 in its own group

	g, err := tab.GroupTable([]string{"a", "b"}, []int{0, 0, 1})
	if err != nil {
		t.Fatal(err)
	}
	if got := g.At(0, 0, 0, 10); got != 3 {
		t.Errorf("group a mean = %g, want 3", got)
	}
	if got := g.At(1, 0, 0, 10); got != 9 {
		t.Errorf("group b mean = %g, want 9", got)
	}
}

func TestGroupTableErrors(t *testing.T) {
	tab := newTestTable(t)
	if _, err := tab.GroupTable([]string{"a"}, []int{0, 0}); err == nil {
		t.Error("no error for membership length mismatch")
	}
	if _, err := tab.GroupTable([]string{"a"}, []int{0, 0, 5}); err == nil {
		t.Error("no error for out-of-range group")
	}
	if _, err := tab.GroupTable([]string{"a", "b"}, []int{0, 0, 0}); err == nil {
		t.Error("no error for empty group")
	}
}

// TestGroupTableRefusesNegative: every user belongs to one group, so a
// membership of -1 is refused, naming the user.
func TestGroupTableRefusesNegative(t *testing.T) {
	tab := newTestTable(t)
	_, err := tab.GroupTable([]string{"a"}, []int{0, -1, 0})
	if err == nil || !strings.Contains(err.Error(), tab.Users()[1]) {
		t.Fatalf("got %v, want an error naming user %s", err, tab.Users()[1])
	}
}

func TestAspects(t *testing.T) {
	aspects := ACOBEAspects()
	if len(aspects) != 3 {
		t.Fatalf("%d ACOBE aspects", len(aspects))
	}
	if len(aspects[0].Features) != 2 || len(aspects[1].Features) != 7 || len(aspects[2].Features) != 7 {
		t.Errorf("aspect sizes %d/%d/%d, want 2/7/7",
			len(aspects[0].Features), len(aspects[1].Features), len(aspects[2].Features))
	}
	merged := AllInOneAspect()
	if len(merged.Features) != 16 {
		t.Errorf("all-in-1 has %d features, want 16", len(merged.Features))
	}
	if len(BaselineAspects()) != 4 {
		t.Errorf("%d baseline aspects, want 4", len(BaselineAspects()))
	}
}

func TestAllFeatureNamesDedup(t *testing.T) {
	a := Aspect{Name: "x", Features: []string{"f1", "f2"}}
	b := Aspect{Name: "y", Features: []string{"f2", "f3"}}
	names := AllFeatureNames([]Aspect{a, b})
	if len(names) != 3 {
		t.Errorf("got %v", names)
	}
}

// TestEnsureDayGrowth: extending the span day by day must preserve every
// existing measurement across capacity-doubling reallocations and zero-fill
// the new days, so the online ingest path can grow a table for months.
func TestEnsureDayGrowth(t *testing.T) {
	tab := newTestTable(t) // 3 users × 2 features × 2 frames, days 10..19
	rng := mathx.NewRNG(7)
	fill := func(from, to cert.Day) {
		for u := 0; u < 3; u++ {
			for f := 0; f < 2; f++ {
				for fr := 0; fr < 2; fr++ {
					for d := from; d <= to; d++ {
						tab.Add(u, f, fr, d, float64(int(rng.Normal(5, 3))))
					}
				}
			}
		}
	}
	fill(10, 19)

	// Reference copy built on a table that never grows.
	ref, err := NewTable(tab.Users(), tab.Features(), tab.Frames(), 10, 60)
	if err != nil {
		t.Fatal(err)
	}
	for u := 0; u < 3; u++ {
		for f := 0; f < 2; f++ {
			for fr := 0; fr < 2; fr++ {
				for d := cert.Day(10); d <= 19; d++ {
					ref.Add(u, f, fr, d, tab.At(u, f, fr, d))
				}
			}
		}
	}

	for d := cert.Day(20); d <= 60; d++ {
		if err := tab.EnsureDay(d); err != nil {
			t.Fatal(err)
		}
		if _, end := tab.Span(); end != d {
			t.Fatalf("end = %v after EnsureDay(%v)", end, d)
		}
	}
	// Idempotent for in-span days, rejects pre-start days.
	if err := tab.EnsureDay(15); err != nil {
		t.Fatalf("in-span EnsureDay: %v", err)
	}
	if err := tab.EnsureDay(5); err == nil {
		t.Fatal("EnsureDay before start did not error")
	}

	for u := 0; u < 3; u++ {
		for f := 0; f < 2; f++ {
			for fr := 0; fr < 2; fr++ {
				got := tab.Series(u, f, fr)
				want := ref.Series(u, f, fr)
				if len(got) != len(want) {
					t.Fatalf("series length %d, want %d", len(got), len(want))
				}
				for i := range got {
					if got[i] != want[i] {
						t.Fatalf("u=%d f=%d fr=%d day-idx %d: %v != %v", u, f, fr, i, got[i], want[i])
					}
				}
			}
		}
	}
}

// BenchmarkGroupTable is the gauge of the group-mean kernel at the batch
// pipeline's shapes: every tracked feature, 2 frames and 4 groups, over
// 500 users × 27 days (a referee window) and 932 users × 516 days (the
// CERT r4.2 roster over its whole span).
func BenchmarkGroupTable(b *testing.B) {
	for _, shape := range []struct{ users, days int }{{500, 27}, {932, 516}} {
		b.Run(fmt.Sprintf("users=%d", shape.users), func(b *testing.B) {
			users := make([]string, shape.users)
			member := make([]int, shape.users)
			for i := range users {
				users[i] = fmt.Sprintf("u%04d", i)
				member[i] = i % 4
			}
			tab, err := NewTable(users, TrackedFeatures(), 2, 0, cert.Day(shape.days-1))
			if err != nil {
				b.Fatal(err)
			}
			for i := range tab.data {
				tab.data[i] = float64(i % 13)
			}
			groups := []string{"g0", "g1", "g2", "g3"}
			b.ResetTimer()
			for n := 0; n < b.N; n++ {
				if _, err := tab.GroupTable(groups, member); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
