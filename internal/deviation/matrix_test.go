package deviation

import (
	"math"
	"testing"

	"acobe/internal/cert"
	"acobe/internal/features"
	"acobe/internal/mathx"
)

// buildFields creates small individual and group fields over two users,
// two features and one frame with deterministic Poisson-ish content.
func buildFields(t *testing.T, cfg Config) (ind, group *Field, tab *features.Table) {
	t.Helper()
	rng := mathx.NewRNG(1)
	var err error
	tab, err = features.NewTable([]string{"u1", "u2"}, []string{"fa", "fb"}, 2, 0, 29)
	if err != nil {
		t.Fatal(err)
	}
	for u := 0; u < 2; u++ {
		for f := 0; f < 2; f++ {
			for frame := 0; frame < 2; frame++ {
				for d := cert.Day(0); d <= 29; d++ {
					tab.Add(u, f, frame, d, float64(rng.Poisson(3)))
				}
			}
		}
	}
	gtab, err := tab.GroupTable([]string{"g"}, []int{0, 0})
	if err != nil {
		t.Fatal(err)
	}
	ind, err = ComputeField(tab, cfg)
	if err != nil {
		t.Fatal(err)
	}
	group, err = ComputeField(gtab, cfg)
	if err != nil {
		t.Fatal(err)
	}
	return ind, group, tab
}

func aspect() features.Aspect {
	return features.Aspect{Name: "test", Features: []string{"fa", "fb"}}
}

func TestBuilderDims(t *testing.T) {
	cfg := testCfg()
	ind, group, _ := buildFields(t, cfg)

	b, err := NewBuilder(ind, group, []int{0, 0}, aspect())
	if err != nil {
		t.Fatal(err)
	}
	// 2 components × 2 features × 2 frames × 3 matrix days = 24.
	if b.Dim() != 24 {
		t.Errorf("dim with group = %d, want 24", b.Dim())
	}

	nb, err := NewBuilder(ind, nil, nil, aspect())
	if err != nil {
		t.Fatal(err)
	}
	if nb.Dim() != 12 {
		t.Errorf("dim without group = %d, want 12", nb.Dim())
	}
}

func TestBuilderValidation(t *testing.T) {
	cfg := testCfg()
	ind, group, _ := buildFields(t, cfg)
	missing := features.Aspect{Name: "x", Features: []string{"nope"}}
	if _, err := NewBuilder(ind, nil, nil, missing); err == nil {
		t.Error("no error for missing feature")
	}
	if _, err := NewBuilder(ind, group, []int{0}, aspect()); err == nil {
		t.Error("no error for short userGroup")
	}
	if _, err := NewBuilder(ind, group, []int{0, 7}, aspect()); err == nil {
		t.Error("no error for out-of-range group index")
	}
}

// build is BuildInto into a fresh row of the builder's width.
func build(t *testing.T, b *Builder, u int, d cert.Day) []float64 {
	t.Helper()
	dst := make([]float64, b.Dim())
	if err := b.BuildInto(u, d, dst); err != nil {
		t.Fatal(err)
	}
	return dst
}

func TestMatrixValuesTransformedToUnitInterval(t *testing.T) {
	cfg := testCfg()
	ind, group, _ := buildFields(t, cfg)
	b, err := NewBuilder(ind, group, []int{0, 0}, aspect())
	if err != nil {
		t.Fatal(err)
	}
	for i, v := range build(t, b, 0, b.FirstMatrixDay()) {
		if v < 0 || v > 1 {
			t.Fatalf("value %d = %g outside [0,1]", i, v)
		}
	}
}

func TestMatrixLayoutMatchesSigma(t *testing.T) {
	cfg := testCfg()
	ind, group, _ := buildFields(t, cfg)
	b, err := NewBuilder(ind, group, []int{0, 0}, aspect())
	if err != nil {
		t.Fatal(err)
	}
	day := b.FirstMatrixDay() + 2
	m := build(t, b, 1, day)
	// Element 0: individual, feature fa, frame 0, day day-(D-1).
	firstDay := day - cert.Day(cfg.MatrixDays-1)
	want := (ind.Sigma(1, 0, 0, firstDay) + cfg.Delta) / (2 * cfg.Delta)
	if math.Abs(m[0]-want) > 1e-12 {
		t.Errorf("element 0 = %g, want %g", m[0], want)
	}
	// Last element: group component, feature fb, frame 1, day `day`.
	wantLast := (group.Sigma(0, 1, 1, day) + cfg.Delta) / (2 * cfg.Delta)
	if got := m[len(m)-1]; math.Abs(got-wantLast) > 1e-12 {
		t.Errorf("last element = %g, want %g", got, wantLast)
	}
}

// TestBuildRangeClampsAndStrides: every stride-spaced day from
// FirstMatrixDay through LastMatrixDay builds — the range a detector
// clamps its training and scoring windows to (TestBuildOutOfRange pins the
// days just outside).
func TestBuildRangeClampsAndStrides(t *testing.T) {
	cfg := testCfg()
	ind, _, _ := buildFields(t, cfg)
	b, err := NewBuilder(ind, nil, nil, aspect())
	if err != nil {
		t.Fatal(err)
	}
	if b.LastMatrixDay() < b.FirstMatrixDay() {
		t.Fatal("no matrix day in range")
	}
	for d := b.FirstMatrixDay(); d <= b.LastMatrixDay(); d += 2 {
		build(t, b, 0, d)
	}
}

// TestBuildIntoMatchesBuild checks the row BuildInto fills against the
// layout read straight off the fields, element by element and bit for bit,
// fully overwriting stale contents, and validates buffer length and day
// range.
func TestBuildIntoMatchesBuild(t *testing.T) {
	cfg := testCfg()
	ind, group, _ := buildFields(t, cfg)
	b, err := NewBuilder(ind, group, []int{0, 0}, aspect())
	if err != nil {
		t.Fatal(err)
	}
	scale := 1 / (2 * cfg.Delta)
	dst := make([]float64, b.Dim())
	for u := 0; u < 2; u++ {
		for d := b.FirstMatrixDay(); d <= b.LastMatrixDay(); d++ {
			var want []float64
			for _, c := range []struct {
				f   *Field
				row int
			}{{ind, u}, {group, 0}} {
				for feat := 0; feat < 2; feat++ {
					for frame := 0; frame < 2; frame++ {
						for i := cfg.MatrixDays - 1; i >= 0; i-- {
							want = append(want, (c.f.Sigma(c.row, feat, frame, d-cert.Day(i))+cfg.Delta)*scale)
						}
					}
				}
			}
			for i := range dst {
				dst[i] = math.NaN() // stale contents must be overwritten
			}
			if err := b.BuildInto(u, d, dst); err != nil {
				t.Fatal(err)
			}
			for i := range dst {
				if math.Float64bits(dst[i]) != math.Float64bits(want[i]) {
					t.Fatalf("user %d day %v element %d: %v != %v", u, d, i, dst[i], want[i])
				}
			}
		}
	}
	if err := b.BuildInto(0, b.FirstMatrixDay(), make([]float64, b.Dim()-1)); err == nil {
		t.Error("no error for short dst buffer")
	}
	if err := b.BuildInto(0, b.FirstMatrixDay()-1, dst); err == nil {
		t.Error("no error before first matrix day")
	}
}

func TestBuildOutOfRange(t *testing.T) {
	cfg := testCfg()
	ind, _, _ := buildFields(t, cfg)
	b, err := NewBuilder(ind, nil, nil, aspect())
	if err != nil {
		t.Fatal(err)
	}
	dst := make([]float64, b.Dim())
	if err := b.BuildInto(0, b.FirstMatrixDay()-1, dst); err == nil {
		t.Error("no error before first matrix day")
	}
	if err := b.BuildInto(0, b.LastMatrixDay()+1, dst); err == nil {
		t.Error("no error after last matrix day")
	}
}

func TestGroupRowSelectsUserGroup(t *testing.T) {
	cfg := testCfg()
	rng := mathx.NewRNG(2)
	tab, err := features.NewTable([]string{"u1", "u2"}, []string{"fa"}, 1, 0, 19)
	if err != nil {
		t.Fatal(err)
	}
	for u := 0; u < 2; u++ {
		for d := cert.Day(0); d <= 19; d++ {
			tab.Add(u, 0, 0, d, float64(rng.Poisson(float64(3+u*10))))
		}
	}
	// Each user is its own group, so the group component must equal the
	// user's own deviations.
	gtab, err := tab.GroupTable([]string{"g1", "g2"}, []int{0, 1})
	if err != nil {
		t.Fatal(err)
	}
	ind, err := ComputeField(tab, cfg)
	if err != nil {
		t.Fatal(err)
	}
	grp, err := ComputeField(gtab, cfg)
	if err != nil {
		t.Fatal(err)
	}
	b, err := NewBuilder(ind, grp, []int{0, 1}, features.Aspect{Name: "a", Features: []string{"fa"}})
	if err != nil {
		t.Fatal(err)
	}
	for u := 0; u < 2; u++ {
		m := build(t, b, u, b.FirstMatrixDay())
		half := len(m) / 2
		for i := 0; i < half; i++ {
			if math.Abs(m[i]-m[half+i]) > 1e-12 {
				t.Fatalf("user %d: individual and singleton-group components differ at %d", u, i)
			}
		}
	}
}
