package serve

import (
	"context"
	"errors"
	"math"
	"reflect"
	"sync/atomic"
	"testing"

	"acobe/internal/cert"
	"acobe/internal/mathx"
	"acobe/internal/obs"
	"acobe/pkg/acobe"
)

// newMemoServer is newObsServer with a two-aspect, two-vote ensemble, so
// the memo's per-aspect columns and the critic's voting both matter, with
// days 0..through closed.
func newMemoServer(t *testing.T, shards int, through cert.Day) *Server {
	t.Helper()
	opts := append(testDetOpts(),
		acobe.WithAspects(acobe.Aspect{Name: "a", Features: testFeats[:1]}, acobe.Aspect{Name: "b", Features: testFeats[1:]}),
		acobe.WithVotes(2))
	srv, err := New(Config{
		Users:           testUsers,
		Groups:          testGroups,
		Membership:      testMember,
		Start:           0,
		Deviation:       testDevCfg(),
		IngestorFactory: stubShardFactory(testUsers),
		Shards:          shards,
		DetectorOptions: opts,
		QueueSize:       16,
		Observer:        obs.NewObserver(),
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { shutdown(t, srv) })
	for d := cert.Day(0); d <= through; d++ {
		if err := srv.CloseDay(context.Background(), d); err != nil {
			t.Fatal(err)
		}
	}
	return srv
}

// TestRankMemoInvalidation: a retrain is the one event that invalidates
// scored columns. After a retrain on a different span the same window is
// scored again, in full, by the new model — the list is the new
// detector's, not a mix — and a day close in between invalidates nothing.
func TestRankMemoInvalidation(t *testing.T) {
	ctx := context.Background()
	srv := newMemoServer(t, 3, 60)
	if err := srv.Retrain(ctx, 0, 40, true); err != nil {
		t.Fatal(err)
	}
	probe := newMemoProbe(t, srv)
	probe.rank(50, 60)
	probe.rank(50, 60)
	first, err := srv.Rank(ctx, 50, 60)
	if err != nil {
		t.Fatal(err)
	}
	if err := srv.CloseDay(ctx, 61); err != nil {
		t.Fatal(err)
	}
	probe.rank(50, 61) // the close kept the memo: one new day

	if err := srv.Retrain(ctx, 20, 55, true); err != nil {
		t.Fatal(err)
	}
	if got := srv.Status().RankMemoBytes; got != 0 {
		t.Fatalf("rank_memo_bytes = %d right after a retrain, want 0", got)
	}
	probe = newMemoProbe(t, srv) // empty ledger: every day must be scored again
	probe.rank(50, 60)
	second, err := srv.Rank(ctx, 50, 60)
	if err != nil {
		t.Fatal(err)
	}
	if reflect.DeepEqual(first, second) {
		t.Fatal("the two training spans rank identically; the test cannot tell a stale memo from a fresh one")
	}
}

// flakyCtx reports cancellation from its n-th Err call on, which lets a
// test cancel a fill at every point where the scoring kernel looks.
type flakyCtx struct {
	context.Context
	left atomic.Int64
}

func (c *flakyCtx) Err() error {
	if c.left.Add(-1) < 0 {
		return context.Canceled
	}
	return nil
}

// TestRankMemoCancellation: a fill cancelled at any point — before the
// first run of missing days, between two runs, between two aspects of one
// run — returns ErrCanceled and stores nothing, and the next rank with a
// live context scores the whole window and returns the correct list.
func TestRankMemoCancellation(t *testing.T) {
	ctx := context.Background()
	srv := newMemoServer(t, 1, 60)
	if err := srv.Retrain(ctx, 0, 40, true); err != nil {
		t.Fatal(err)
	}
	probe := newMemoProbe(t, srv)
	probe.rank(54, 55) // splits 50..60's missing days into two runs

	canceled := 0
	for n := int64(0); ; n++ {
		fc := &flakyCtx{Context: ctx}
		fc.left.Store(n)
		scored0, _ := probe.columns()
		bytes0 := srv.Status().RankMemoBytes
		_, err := srv.Rank(fc, 50, 60)
		if err == nil {
			break
		}
		if !errors.Is(err, acobe.ErrCanceled) {
			t.Fatalf("rank cancelled at check %d: %v, want ErrCanceled", n, err)
		}
		if scored, _ := probe.columns(); scored != scored0 || srv.Status().RankMemoBytes != bytes0 {
			t.Fatalf("rank cancelled at check %d stored columns", n)
		}
		canceled++
		probe.rank(54, 55) // the memo still serves what it held
	}
	// Two runs × two aspects: at least four places to be cancelled at.
	if canceled < 4 {
		t.Fatalf("the fill looked at its context %d times, want one per run and aspect", canceled)
	}
	// The uncancelled attempt that ended the loop filled the window; the
	// ledger has not seen those days, so account for them and re-check.
	for d := cert.Day(50); d <= 60; d++ {
		probe.seen[d] = true
	}
	probe.rank(50, 60)
	probe.rank(45, 61)
}

// TestRankMemoStoresMedians: each memoised day holds, beside its columns,
// every aspect column's median as the batch aggregate takes it (the
// interpolated 50th percentile, floored at 1e-12), so a warm rank
// divides by a stored number and sorts nothing.
func TestRankMemoStoresMedians(t *testing.T) {
	ctx := context.Background()
	srv := newMemoServer(t, 3, 60)
	if err := srv.Retrain(ctx, 0, 40, true); err != nil {
		t.Fatal(err)
	}
	probe := newMemoProbe(t, srv)
	probe.rank(50, 60)
	p := srv.pub.Load()
	users, aspects := len(p.det.Users()), len(p.det.AspectNames())
	for d := cert.Day(50); d <= 60; d++ {
		block := (*p.scores.days.Load())[d-p.scores.first]
		if len(block) != aspects*(users+1) {
			t.Fatalf("day %v: block of %d floats, want %d columns of %d and %d medians", d, len(block), aspects, users, aspects)
		}
		for a := range aspects {
			want := mathx.Percentile(block[a*users:(a+1)*users], 50)
			if want <= 0 {
				want = 1e-12
			}
			if got := block[aspects*users+a]; math.Float64bits(got) != math.Float64bits(want) {
				t.Fatalf("day %v aspect %d: stored median %v, want %v", d, a, got, want)
			}
		}
	}
}
