// Package acobe_test exercises the facade exactly as an external importer
// would: only through the public pkg/acobe surface, building tables and
// detectors from scratch without touching any internal package.
package acobe_test

import (
	"bytes"
	"context"
	"errors"
	"reflect"
	"testing"

	"acobe/pkg/acobe"
)

// lcg is a tiny deterministic generator so the test depends on nothing
// beyond the facade.
type lcg uint64

func (g *lcg) next() float64 {
	*g = *g*6364136223846793005 + 1442695040888963407
	return float64(*g>>40) / float64(1<<24)
}

const (
	testUsers = 6
	lastDay   = acobe.Day(99)
	anomalous = "u5"
)

func buildTable(t *testing.T) (*acobe.Table, []string, []int) {
	t.Helper()
	users := []string{"u0", "u1", "u2", "u3", "u4", anomalous}
	feats := []string{"fa", "fb"}
	tbl, err := acobe.NewTable(users, feats, 2, 0, lastDay)
	if err != nil {
		t.Fatal(err)
	}
	g := lcg(3)
	for u := range users {
		for f := range feats {
			for frame := 0; frame < 2; frame++ {
				for d := acobe.Day(0); d <= lastDay; d++ {
					v := float64(int(6*g.next())) + 2
					// The last user changes behavior drastically in the
					// final stretch.
					if users[u] == anomalous && d >= 91 {
						v += 60
					}
					tbl.Add(u, f, frame, d, v)
				}
			}
		}
	}
	membership := make([]int, len(users))
	return tbl, users, membership // everyone in group 0
}

func newDetector(t *testing.T, tbl *acobe.Table, membership []int) *acobe.Detector {
	t.Helper()
	det, err := acobe.NewDetector(tbl,
		acobe.WithAspects(acobe.Aspect{Name: "a", Features: []string{"fa", "fb"}}),
		acobe.WithGroups([]string{"g0"}, membership),
		acobe.WithDeviationConfig(acobe.DeviationConfig{Window: 10, MatrixDays: 4, Delta: 3, Epsilon: 1}),
		acobe.WithSeed(5),
		acobe.WithVotes(1),
		acobe.WithModelConfig(func(dim int) acobe.ModelConfig {
			cfg := acobe.FastModelConfig(dim)
			cfg.Hidden = []int{16, 8}
			cfg.Epochs = 30
			return cfg
		}),
	)
	if err != nil {
		t.Fatal(err)
	}
	return det
}

func TestFacadeEndToEnd(t *testing.T) {
	tbl, users, membership := buildTable(t)
	det := newDetector(t, tbl, membership)
	ctx := context.Background()

	if _, err := det.ScoreBatch(ctx, 90, lastDay); !errors.Is(err, acobe.ErrNotFitted) {
		t.Fatalf("ScoreBatch before Fit: %v, want ErrNotFitted", err)
	}
	if _, err := det.Rank(ctx, 90, lastDay); !errors.Is(err, acobe.ErrNotFitted) {
		t.Fatalf("Rank before Fit: %v, want ErrNotFitted", err)
	}
	if _, err := det.ScoreBatchInto(ctx, nil, 90, lastDay); !errors.Is(err, acobe.ErrNotFitted) {
		t.Fatalf("ScoreBatchInto before Fit: %v, want ErrNotFitted", err)
	}

	losses, err := det.Fit(ctx, 0, 85)
	if err != nil {
		t.Fatal(err)
	}
	if len(losses) != 1 || losses["a"] <= 0 {
		t.Fatalf("losses = %v", losses)
	}
	if !det.Fitted() {
		t.Fatal("Fitted() false after Fit")
	}

	// ScoreBatchInto with a recycled dst must reproduce Score exactly.
	series, err := det.ScoreBatch(ctx, 91, lastDay)
	if err != nil {
		t.Fatal(err)
	}
	reused, err := det.ScoreBatchInto(ctx, nil, 91, lastDay)
	if err != nil {
		t.Fatal(err)
	}
	if reused, err = det.ScoreBatchInto(ctx, reused, 91, lastDay); err != nil {
		t.Fatal(err)
	}
	for ai := range series {
		for u := range series[ai].Scores {
			for i, v := range series[ai].Scores[u] {
				if reused[ai].Scores[u][i] != v {
					t.Fatalf("ScoreBatchInto diverged at aspect %d user %d day %d", ai, u, i)
				}
			}
		}
	}

	list, err := det.Rank(ctx, 91, lastDay)
	if err != nil {
		t.Fatal(err)
	}
	if len(list) != len(users) {
		t.Fatalf("list has %d rows for %d users", len(list), len(users))
	}
	if list[0].User != anomalous {
		t.Errorf("top of list = %s (priority %d), want %s", list[0].User, list[0].Priority, anomalous)
	}
	// Rank is ScoreBatch + RankSeries: ranking series the caller already
	// holds gives the same list.
	if fromSeries := det.RankSeries(series); !reflect.DeepEqual(fromSeries, list) {
		t.Fatal("RankSeries over ScoreBatch's series differs from Rank")
	}
	// A window with no scoreable day is a typed error, not a generic one.
	if _, err := det.Rank(ctx, lastDay, 91); !errors.Is(err, acobe.ErrEmptyRange) {
		t.Fatalf("Rank with from > to: %v, want ErrEmptyRange", err)
	}
	if _, err := det.ScoreBatch(ctx, lastDay+1, lastDay+9); !errors.Is(err, acobe.ErrEmptyRange) {
		t.Fatalf("ScoreBatch past the table: %v, want ErrEmptyRange", err)
	}

	// Persistence round-trips through the facade and marks the copy fitted.
	var buf bytes.Buffer
	if err := det.SaveModels(&buf); err != nil {
		t.Fatal(err)
	}
	clone := newDetector(t, tbl, membership)
	if err := clone.LoadModels(bytes.NewReader(buf.Bytes())); err != nil {
		t.Fatal(err)
	}
	list2, err := clone.Rank(ctx, 91, lastDay)
	if err != nil {
		t.Fatal(err)
	}
	for i := range list {
		if list[i].User != list2[i].User || list[i].Priority != list2[i].Priority {
			t.Fatalf("restored detector ranks differently at %d: %+v vs %+v", i, list[i], list2[i])
		}
	}
}

func TestFacadeCancellation(t *testing.T) {
	tbl, _, membership := buildTable(t)
	det := newDetector(t, tbl, membership)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := det.Fit(ctx, 0, 85); !errors.Is(err, acobe.ErrCanceled) {
		t.Fatalf("Fit with canceled ctx: %v, want ErrCanceled", err)
	}
	if _, err := det.Fit(context.Background(), 0, 85); err != nil {
		t.Fatal(err)
	}
	if _, err := det.ScoreBatch(ctx, 90, lastDay); !errors.Is(err, acobe.ErrCanceled) {
		t.Fatalf("ScoreBatch with canceled ctx: %v, want ErrCanceled", err)
	}
}

func TestFacadeOptionValidation(t *testing.T) {
	tbl, _, membership := buildTable(t)
	if _, err := acobe.NewDetector(tbl, acobe.WithGroups([]string{"g0"}, membership), acobe.WithVotes(0)); err == nil {
		t.Error("WithVotes(0) accepted")
	}
	if _, err := acobe.NewDetector(tbl, acobe.WithGroups([]string{"g0"}, membership), acobe.WithTrainStride(0)); err == nil {
		t.Error("WithTrainStride(0) accepted")
	}
	if _, err := acobe.NewDetector(tbl); err == nil {
		t.Error("group deviations without WithGroups accepted")
	}
	if _, err := acobe.NewDetector(tbl,
		acobe.WithGroupDeviations(false),
		acobe.WithAspects(acobe.Aspect{Name: "a", Features: []string{"fa", "fb"}}),
		acobe.WithDeviationConfig(acobe.DeviationConfig{Window: 10, MatrixDays: 4, Delta: 3, Epsilon: 1, Weighted: true})); err != nil {
		t.Errorf("No-Group detector without groups rejected: %v", err)
	}
}

func TestFacadeFromFields(t *testing.T) {
	tbl, users, _ := buildTable(t)
	cfg := acobe.DefaultDeviationConfig()
	cfg.Window = 10
	cfg.MatrixDays = 4
	ind, err := acobe.ComputeDeviations(tbl, cfg)
	if err != nil {
		t.Fatal(err)
	}
	det, err := acobe.NewDetectorFromFields(ind, nil, nil,
		acobe.WithGroupDeviations(false),
		acobe.WithAspects(acobe.Aspect{Name: "a", Features: []string{"fa", "fb"}}),
		acobe.WithModelConfig(func(dim int) acobe.ModelConfig {
			c := acobe.FastModelConfig(dim)
			c.Hidden = []int{16, 8}
			c.Epochs = 20
			return c
		}),
	)
	if err != nil {
		t.Fatal(err)
	}
	if got := det.Users(); len(got) != len(users) {
		t.Fatalf("detector sees %d users, want %d", len(got), len(users))
	}
	if _, err := det.Fit(context.Background(), 0, 85); err != nil {
		t.Fatal(err)
	}
	if _, err := det.Rank(context.Background(), 91, lastDay); err != nil {
		t.Fatal(err)
	}
}

// TestAspectsOf: the aspects a detector's options resolve to, in ensemble
// order — the paper's three by default, WithAspects' when given (the last
// one wins, as in NewDetector).
func TestAspectsOf(t *testing.T) {
	if got := acobe.AspectsOf(acobe.WithSeed(3)); !reflect.DeepEqual(got, acobe.ACOBEAspects()) {
		t.Errorf("default aspects %v, want the paper's three", got)
	}
	one := acobe.Aspect{Name: "one", Features: []string{"f"}}
	got := acobe.AspectsOf(acobe.WithAspects(acobe.AllInOneAspect()), acobe.WithAspects(one))
	if !reflect.DeepEqual(got, []acobe.Aspect{one}) {
		t.Errorf("aspects %v, want [%v]", got, one)
	}
}
