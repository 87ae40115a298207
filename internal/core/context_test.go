package core

import (
	"context"
	"errors"
	"runtime"
	"testing"
	"time"

	"acobe/internal/autoencoder"
	"acobe/internal/features"
)

// slowDetector returns a detector whose single-aspect training is slow
// enough (many epochs, no early stop) that a mid-Fit cancellation must
// land between batches, not after training already finished.
func slowDetector(t *testing.T, aspects int) *Detector {
	t.Helper()
	ind, grp, ug := synthData(t)
	cfg := detectorConfig()
	cfg.AEConfig = func(dim int) autoencoder.Config {
		c := autoencoder.FastConfig(dim)
		c.Hidden = []int{32, 16}
		c.Epochs = 100000 // far longer than the test deadline
		c.EarlyStopDelta = 0
		return c
	}
	if aspects > 1 {
		cfg.Aspects = nil
		for i := 0; i < aspects; i++ {
			cfg.Aspects = append(cfg.Aspects, features.Aspect{
				Name: string(rune('a' + i)), Features: []string{"fa", "fb"},
			})
		}
	}
	det, err := NewDetector(cfg, ind, grp, ug)
	if err != nil {
		t.Fatal(err)
	}
	return det
}

// TestFitCancellation cancels a running Fit and asserts it returns
// promptly with the context error and leaks no goroutines — the parallel
// ensemble loop must drain every aspect trainer before returning.
func TestFitCancellation(t *testing.T) {
	det := slowDetector(t, 3) // exercise the concurrent ensemble path
	before := runtime.NumGoroutine()

	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan error, 1)
	go func() {
		_, err := det.Fit(ctx, 0, 90)
		done <- err
	}()
	time.Sleep(100 * time.Millisecond) // let training get going
	cancel()

	select {
	case err := <-done:
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("Fit returned %v, want context.Canceled", err)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("Fit did not return within 2s of cancellation")
	}

	// All aspect trainers must have exited; poll briefly because exiting
	// goroutines need a moment to be reaped.
	deadline := time.Now().Add(2 * time.Second)
	for {
		if g := runtime.NumGoroutine(); g <= before {
			break
		} else if time.Now().After(deadline) {
			t.Fatalf("goroutines leaked: %d before Fit, %d after cancellation", before, g)
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// TestFitPreCanceled: a context canceled before Fit starts must fail fast
// without training anything.
func TestFitPreCanceled(t *testing.T) {
	det := slowDetector(t, 1)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	start := time.Now()
	if _, err := det.Fit(ctx, 0, 90); !errors.Is(err, context.Canceled) {
		t.Fatalf("Fit returned %v, want context.Canceled", err)
	}
	if d := time.Since(start); d > time.Second {
		t.Fatalf("pre-canceled Fit took %v", d)
	}
}

// TestScoreCancellation: a canceled context stops the scoring worker pool.
func TestScoreCancellation(t *testing.T) {
	ind, grp, ug := synthData(t)
	cfg := detectorConfig()
	det, err := NewDetector(cfg, ind, grp, ug)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := det.Fit(context.Background(), 0, 90); err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := det.ScoreBatch(ctx, 95, 119); !errors.Is(err, context.Canceled) {
		t.Fatalf("ScoreBatch returned %v, want context.Canceled", err)
	}
}
