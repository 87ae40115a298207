package core

import (
	"bytes"
	"context"
	"testing"
)

func TestSaveLoadModelsRoundTrip(t *testing.T) {
	ind, grp, ug := synthData(t)
	det, err := NewDetector(detectorConfig(), ind, grp, ug)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := det.Fit(context.Background(), 0, 90); err != nil {
		t.Fatal(err)
	}
	want, err := det.ScoreBatch(context.Background(), 95, 119)
	if err != nil {
		t.Fatal(err)
	}

	var buf bytes.Buffer
	if err := det.SaveModels(&buf); err != nil {
		t.Fatal(err)
	}

	// A freshly constructed (untrained) detector + LoadModels must score
	// identically to the trained one.
	fresh, err := NewDetector(detectorConfig(), ind, grp, ug)
	if err != nil {
		t.Fatal(err)
	}
	if err := fresh.LoadModels(bytes.NewReader(buf.Bytes())); err != nil {
		t.Fatal(err)
	}
	got, err := fresh.ScoreBatch(context.Background(), 95, 119)
	if err != nil {
		t.Fatal(err)
	}
	for a := range want {
		for u := range want[a].Scores {
			for d := range want[a].Scores[u] {
				if want[a].Scores[u][d] != got[a].Scores[u][d] {
					t.Fatalf("score differs after reload at aspect %d user %d day %d", a, u, d)
				}
			}
		}
	}
}

func TestLoadModelsMismatch(t *testing.T) {
	ind, grp, ug := synthData(t)
	det, err := NewDetector(detectorConfig(), ind, grp, ug)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := det.SaveModels(&buf); err != nil {
		t.Fatal(err)
	}

	// Different aspect set must be rejected.
	cfg := detectorConfig()
	cfg.Aspects[0].Name = "other"
	other, err := NewDetector(cfg, ind, grp, ug)
	if err != nil {
		t.Fatal(err)
	}
	if err := other.LoadModels(bytes.NewReader(buf.Bytes())); err == nil {
		t.Error("no error loading models into mismatched detector")
	}

	// Garbage must be rejected.
	if err := det.LoadModels(bytes.NewReader([]byte("junk"))); err == nil {
		t.Error("no error decoding garbage")
	}
}
