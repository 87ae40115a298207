package core

import (
	"context"
	"errors"
	"testing"

	"acobe/internal/autoencoder"
	"acobe/internal/cert"
	"acobe/internal/deviation"
	"acobe/internal/features"
	"acobe/internal/mathx"
)

// synthData builds a 6-user, 2-feature table where user 5 develops a
// sustained burst in feature 0 during the test period.
func synthData(t *testing.T) (*deviation.Field, *deviation.Field, []int) {
	t.Helper()
	users := []string{"u0", "u1", "u2", "u3", "u4", "target"}
	tab, err := features.NewTable(users, []string{"fa", "fb"}, 2, 0, 119)
	if err != nil {
		t.Fatal(err)
	}
	// Normal behaviour: a stable weekly rhythm with mild noise, so the
	// autoencoder can actually learn it from six users' matrices.
	rng := mathx.NewRNG(1)
	for u := range users {
		for f := 0; f < 2; f++ {
			for frame := 0; frame < 2; frame++ {
				for d := cert.Day(0); d <= 119; d++ {
					base := 6 + float64(int(d)%7)
					tab.Add(u, f, frame, d, base+rng.Normal(0, 0.5))
				}
			}
		}
	}
	// The target develops a sustained burst in feature 0 (work hours).
	for d := cert.Day(100); d <= 115; d++ {
		tab.Add(5, 0, 0, d, 30)
	}
	gtab, err := tab.GroupTable([]string{"g"}, []int{0, 0, 0, 0, 0, 0})
	if err != nil {
		t.Fatal(err)
	}
	cfg := deviation.Config{Window: 10, MatrixDays: 5, Delta: 3, Epsilon: 1, Weighted: true}
	ind, err := deviation.ComputeField(tab, cfg)
	if err != nil {
		t.Fatal(err)
	}
	grp, err := deviation.ComputeField(gtab, cfg)
	if err != nil {
		t.Fatal(err)
	}
	return ind, grp, []int{0, 0, 0, 0, 0, 0}
}

func detectorConfig() Config {
	return Config{
		Deviation:    deviation.Config{Window: 10, MatrixDays: 5, Delta: 3, Epsilon: 1, Weighted: true},
		Aspects:      []features.Aspect{{Name: "a", Features: []string{"fa", "fb"}}},
		IncludeGroup: true,
		AEConfig: func(dim int) autoencoder.Config {
			cfg := autoencoder.FastConfig(dim)
			cfg.Hidden = []int{16, 8}
			cfg.Epochs = 30
			return cfg
		},
		TrainStride: 1,
		N:           1,
		Seed:        9,
	}
}

func TestDetectorEndToEnd(t *testing.T) {
	ind, grp, ug := synthData(t)
	det, err := NewDetector(detectorConfig(), ind, grp, ug)
	if err != nil {
		t.Fatal(err)
	}
	if got := det.Aspects(); len(got) != 1 || got[0] != "a" {
		t.Fatalf("aspects %v", got)
	}
	losses, err := det.Fit(context.Background(), 0, 90)
	if err != nil {
		t.Fatal(err)
	}
	if losses["a"] <= 0 {
		t.Errorf("loss %g", losses["a"])
	}
	list, err := det.Investigate(context.Background(), 95, 119)
	if err != nil {
		t.Fatal(err)
	}
	if len(list) != 6 {
		t.Fatalf("%d entries", len(list))
	}
	if list[0].User != "target" {
		t.Errorf("top of list %s, want target (%+v)", list[0].User, list)
	}
}

func TestDetectorValidation(t *testing.T) {
	ind, grp, ug := synthData(t)
	cfg := detectorConfig()
	cfg.Aspects = nil
	if _, err := NewDetector(cfg, ind, grp, ug); err == nil {
		t.Error("no error for empty aspects")
	}
	cfg = detectorConfig()
	if _, err := NewDetector(cfg, ind, nil, nil); err == nil {
		t.Error("no error for missing group field with IncludeGroup")
	}
	cfg = detectorConfig()
	cfg.Aspects = []features.Aspect{{Name: "x", Features: []string{"missing"}}}
	if _, err := NewDetector(cfg, ind, grp, ug); err == nil {
		t.Error("no error for unknown feature")
	}
}

func TestDetectorNoGroup(t *testing.T) {
	ind, _, _ := synthData(t)
	cfg := detectorConfig()
	cfg.IncludeGroup = false
	det, err := NewDetector(cfg, ind, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := det.Fit(context.Background(), 0, 90); err != nil {
		t.Fatal(err)
	}
	series, err := det.Score(context.Background(), 95, 119)
	if err != nil {
		t.Fatal(err)
	}
	if len(series) != 1 || len(series[0].Scores) != 6 {
		t.Fatalf("series shape wrong")
	}
	if series[0].DaysCovered() != 25 {
		t.Errorf("covered %d days", series[0].DaysCovered())
	}
}

func TestScoreClampingToMatrixRange(t *testing.T) {
	ind, grp, ug := synthData(t)
	det, err := NewDetector(detectorConfig(), ind, grp, ug)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := det.Fit(context.Background(), 0, 90); err != nil {
		t.Fatal(err)
	}
	series, err := det.Score(context.Background(), -100, 10000)
	if err != nil {
		t.Fatal(err)
	}
	if series[0].From != det.FirstMatrixDay() {
		t.Errorf("from %v, want %v", series[0].From, det.FirstMatrixDay())
	}
	if series[0].To != 119 {
		t.Errorf("to %v, want 119", series[0].To)
	}
}

// TestScoreEmptyRange: the three ways a window can hold no scoreable day
// all surface the typed sentinel, from Score and from Investigate.
func TestScoreEmptyRange(t *testing.T) {
	ind, grp, ug := synthData(t)
	det, err := NewDetector(detectorConfig(), ind, grp, ug)
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	first := det.FirstMatrixDay()
	for name, w := range map[string][2]cert.Day{
		"from after to":        {first + 5, first + 2},
		"before the first day": {-50, first - 1},
		"after the last day":   {120, 130},
	} {
		if _, err := det.Score(ctx, w[0], w[1]); !errors.Is(err, ErrEmptyRange) {
			t.Errorf("Score, %s: %v, want ErrEmptyRange", name, err)
		}
		if _, err := det.Investigate(ctx, w[0], w[1]); !errors.Is(err, ErrEmptyRange) {
			t.Errorf("Investigate, %s: %v, want ErrEmptyRange", name, err)
		}
	}
}

func TestFitEmptyRange(t *testing.T) {
	ind, grp, ug := synthData(t)
	det, err := NewDetector(detectorConfig(), ind, grp, ug)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := det.Fit(context.Background(), 200, 210); err == nil {
		t.Error("no error for training range past the data")
	}
}
