package baseline

import (
	"context"
	"strings"
	"testing"

	"acobe/internal/autoencoder"
	"acobe/internal/cert"
	"acobe/internal/core"
	"acobe/internal/features"
	"acobe/internal/mathx"
)

// tinyTable builds a 4-user table with stable weekday patterns and one
// user whose pattern breaks during the last 10 days.
func tinyTable(t *testing.T) (*features.Table, *features.Table, []int) {
	t.Helper()
	users := []string{"u1", "u2", "u3", "anomalous"}
	tab, err := features.NewTable(users, features.TrackedFeatures(), 2, 0, 99)
	if err != nil {
		t.Fatal(err)
	}
	rng := mathx.NewRNG(4)
	fVisit := tab.FeatureIndex(features.FeatCoarseHTTPVisit)
	fUpload := tab.FeatureIndex(features.FeatCoarseHTTPUpload)
	fLogon := tab.FeatureIndex(features.FeatCoarseLogon)
	for u := range users {
		for d := cert.Day(0); d <= 99; d++ {
			if d.IsWeekend() {
				continue
			}
			tab.Add(u, fVisit, 0, d, float64(rng.Poisson(20)))
			tab.Add(u, fLogon, 0, d, float64(rng.Poisson(2)))
			tab.Add(u, fUpload, 0, d, float64(rng.Poisson(0.3)))
		}
	}
	// Anomaly: the last user uploads heavily during the final 10 days.
	for d := cert.Day(90); d <= 99; d++ {
		tab.Add(3, fUpload, 0, d, 25)
	}
	group, err := tab.GroupTable([]string{"g"}, []int{0, 0, 0, 0})
	if err != nil {
		t.Fatal(err)
	}
	return tab, group, []int{0, 0, 0, 0}
}

func fastAE(dim int) autoencoder.Config {
	cfg := autoencoder.FastConfig(dim)
	cfg.Hidden = []int{16, 8}
	cfg.Epochs = 20
	return cfg
}

func TestNewValidation(t *testing.T) {
	tab, group, ug := tinyTable(t)
	if _, err := New(Config{}, tab, group, ug, 0, 79); err == nil {
		t.Error("no error for empty aspects")
	}
	cfg := NewOneDayConfig()
	if _, err := New(cfg, tab, nil, nil, 0, 79); err == nil {
		t.Error("no error for missing group table")
	}
	if _, err := New(cfg, tab, group, ug, 200, 210); err == nil {
		t.Error("no error for a training span past the table")
	}
	cfg = NewBaselineConfig()
	cfg.Aspects = []features.Aspect{{Name: "x", Features: []string{"missing"}}}
	if _, err := New(cfg, tab, group, ug, 0, 79); err == nil {
		t.Error("no error for unknown feature")
	}
}

// TestNewRefusesUngroupedUser: a 1-Day row embeds its user's group, so a
// user outside every group (-1) is refused by name at construction.
func TestNewRefusesUngroupedUser(t *testing.T) {
	tab, group, _ := tinyTable(t)
	_, err := New(NewOneDayConfig(), tab, group, []int{0, -1, 0, 0}, 0, 79)
	if err == nil || !strings.Contains(err.Error(), "u2") {
		t.Fatalf("got %v, want an error naming user u2", err)
	}
}

func TestBaselineDetectsBlatantAnomaly(t *testing.T) {
	tab, group, ug := tinyTable(t)
	cfg := NewBaselineConfig()
	cfg.AEConfig = fastAE
	// Only the http aspect carries signal in this tiny fixture (device,
	// file and logon counts are all zero), so evaluate it alone — zero
	// aspects rank users arbitrarily and would just add noise.
	cfg.Aspects = []features.Aspect{features.BaselineAspects()[2]}
	cfg.N = 1
	det, err := New(cfg, tab, group, ug, 0, 79)
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	if _, err := det.Fit(ctx, 0, 79); err != nil {
		t.Fatal(err)
	}
	list, err := det.Investigate(ctx, 80, 99)
	if err != nil {
		t.Fatal(err)
	}
	if len(list) != 4 {
		t.Fatalf("list has %d entries", len(list))
	}
	// The single-day baseline *can* catch a massive single-feature burst.
	if list[0].User != "anomalous" {
		t.Errorf("top of list is %s, want anomalous (list: %+v)", list[0].User, list)
	}
}

// aspectRows returns the row source of a config's first aspect.
func aspectRows(t *testing.T, cfg Config, tab, group *features.Table, ug []int, from, to cert.Day) core.RowSource {
	t.Helper()
	rows, err := newRows(cfg, tab, group, ug, from, to)
	if err != nil {
		t.Fatal(err)
	}
	return rows[0]
}

func TestOneDayIncludesGroupFeatures(t *testing.T) {
	tab, group, ug := tinyTable(t)
	base := aspectRows(t, NewBaseFFConfig(), tab, group, ug, 0, 50)
	withGroup := aspectRows(t, NewOneDayConfig(), tab, group, ug, 0, 50)
	if withGroup.Dim() != 2*base.Dim() {
		t.Errorf("group row %d wide, base row %d", withGroup.Dim(), base.Dim())
	}
	// The group half of a 1-Day row is the user's group normalized on the
	// group's own maxima; the user half is the Base-FF row.
	vBase := make([]float64, base.Dim())
	vGroup := make([]float64, withGroup.Dim())
	if err := base.BuildInto(0, 10, vBase); err != nil {
		t.Fatal(err)
	}
	if err := withGroup.BuildInto(0, 10, vGroup); err != nil {
		t.Fatal(err)
	}
	for i, v := range vBase {
		if vGroup[i] != v {
			t.Fatalf("element %d: 1-Day %g, Base-FF %g", i, vGroup[i], v)
		}
	}
}

func TestNormalization(t *testing.T) {
	tab, group, ug := tinyTable(t)
	for _, aspect := range features.BaselineAspects() {
		cfg := NewBaselineConfig()
		cfg.Aspects = []features.Aspect{aspect}
		r := aspectRows(t, cfg, tab, group, ug, 0, 79)
		row := make([]float64, r.Dim())
		// Normalized training-period values must lie in [0, 1].
		for u := range tab.Users() {
			for d := cert.Day(0); d <= 79; d++ {
				if err := r.BuildInto(u, d, row); err != nil {
					t.Fatal(err)
				}
				for _, v := range row {
					if v < 0 || v > 1 {
						t.Fatalf("normalized value %g outside [0,1]", v)
					}
				}
			}
		}
	}
}

func TestAspectsExposed(t *testing.T) {
	tab, group, ug := tinyTable(t)
	det, err := New(NewBaselineConfig(), tab, group, ug, 0, 79)
	if err != nil {
		t.Fatal(err)
	}
	got := det.Aspects()
	want := []string{"device", "file", "http", "logon"}
	if len(got) != len(want) {
		t.Fatalf("aspects %v", got)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("aspect %d = %s, want %s", i, got[i], want[i])
		}
	}
	if len(det.Users()) != 4 {
		t.Errorf("users %v", det.Users())
	}
}
