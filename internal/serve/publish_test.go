package serve

import (
	"context"
	"fmt"
	"io"
	"math"
	"reflect"
	"slices"
	"sync"
	"sync/atomic"
	"testing"
	"time"
	"unsafe"

	"acobe/internal/cert"
	"acobe/internal/obs"
)

// TestRetrainParityAcrossShards: a retrain fits directly on the headers
// published at the moment it starts, mid-feed; once the remaining days
// close, every shard count must serve rankings and raw scores
// bit-identical to the offline batch pipeline trained on the same days.
func TestRetrainParityAcrossShards(t *testing.T) {
	const trainTo, lastDay = cert.Day(55), cert.Day(69)
	ctx := context.Background()

	batch := fitBatchDetector(t, lastDay, trainTo)
	wantList, err := batch.Rank(ctx, 60, lastDay)
	if err != nil {
		t.Fatal(err)
	}
	wantSeries, err := batch.Score(ctx, 60, lastDay)
	if err != nil {
		t.Fatal(err)
	}

	for _, n := range shardCounts {
		t.Run(fmt.Sprintf("shards=%d", n), func(t *testing.T) {
			srv, _ := newObsServer(t, n)
			for d := cert.Day(0); d <= trainTo; d++ {
				if err := srv.CloseDay(ctx, d); err != nil {
					t.Fatal(err)
				}
			}
			if err := srv.Retrain(ctx, 0, trainTo, true); err != nil {
				t.Fatal(err)
			}
			if err := srv.CloseDay(ctx, lastDay); err != nil {
				t.Fatal(err)
			}
			list, err := srv.Rank(ctx, 60, lastDay)
			if err != nil {
				t.Fatal(err)
			}
			series, err := srv.Detector().Score(ctx, 60, lastDay)
			if err != nil {
				t.Fatal(err)
			}
			if len(list) != len(wantList) {
				t.Fatalf("%d ranked rows, want %d", len(list), len(wantList))
			}
			for i, w := range wantList {
				g := list[i]
				if g.User != w.User || g.Priority != w.Priority || !slices.Equal(g.Ranks, w.Ranks) {
					t.Errorf("list[%d]: %s/%d %v, want %s/%d %v", i, g.User, g.Priority, g.Ranks, w.User, w.Priority, w.Ranks)
				}
			}
			for a, w := range wantSeries {
				for u := range w.Scores {
					for i := range w.Scores[u] {
						if math.Float64bits(series[a].Scores[u][i]) != math.Float64bits(w.Scores[u][i]) {
							t.Fatalf("aspect %d score[%d][%d] = %v, want bit-identical %v", a, u, i, series[a].Scores[u][i], w.Scores[u][i])
						}
					}
				}
			}
		})
	}
}

// TestPublishedHeaderSharesStorage pins the one-copy property: the header
// a close publishes reads the very storage the next close writes into —
// there is no second copy of σ to build or catch up — and the storage
// changes only when the day capacity grows, which the per-series stride
// shows.
func TestPublishedHeaderSharesStorage(t *testing.T) {
	ctx := context.Background()
	for _, shards := range []int{1, 3} {
		t.Run(fmt.Sprintf("shards=%d", shards), func(t *testing.T) {
			srv, _ := newObsServer(t, shards)
			// Storage identity and stride of a header: the address of its
			// first cell, and the distance to the next series' first cell.
			probe := func(p *published) (*float64, uintptr) {
				a, b := p.ind.SigmaSeries(0, 0, 0), p.ind.SigmaSeries(0, 0, 1)
				return &a[0], uintptr(unsafe.Pointer(&b[0])) - uintptr(unsafe.Pointer(&a[0]))
			}
			first := srv.pub.Load().ind.FirstDay()
			if err := srv.CloseDay(ctx, first); err != nil {
				t.Fatal(err)
			}
			prev := srv.pub.Load()
			grew := 0
			for d := first + 1; d <= first+40; d++ {
				if err := srv.CloseDay(ctx, d); err != nil {
					t.Fatal(err)
				}
				cur := srv.pub.Load()
				prevAt, prevStride := probe(prev)
				curAt, curStride := probe(cur)
				if curStride == prevStride && curAt != prevAt {
					t.Fatalf("day %v: published header moved to new storage without a capacity growth", d)
				}
				if curStride != prevStride {
					if curAt == prevAt {
						t.Fatalf("day %v: capacity grew inside storage an older header still reads", d)
					}
					grew++
				}
				if live := srv.sigma.SigmaSeries(0, 0, 0); &live[0] != curAt {
					t.Fatalf("day %v: the next close's write target is not the published storage", d)
				}
				// The older header still reads what it was published with.
				if got, want := prev.ind.EndDay(), d-1; got != want {
					t.Fatalf("frozen header's end day moved to %v, want %v", got, want)
				}
				prev = cur
			}
			if grew == 0 || grew > 3 {
				t.Fatalf("41 days crossed %d capacity growths, want the doublings 8→16→32→64", grew)
			}
		})
	}
}

// TestRankDuringMergeSwapRace hammers the lock-free read paths — Rank,
// Status, metrics scrapes — while day closes write new days behind the
// published headers (crossing two capacity doublings), publish, and
// rebind the detector, with foreground and background retrains and bare
// swapIns replacing the model at the same time. Its job is to give the
// race detector every interleaving of the shard writes, the capacity
// growth, the two publishers, and the score memo's fills; it also proves
// a rank can never observe a half-published state (every Rank must succeed
// once a model is installed). The rankers ask for overlapping windows —
// some fixed, some following the newest closed day and reaching past it —
// and every list must be the uncached list of the published state it was
// served from, however the memo behind it was filled; at the end the
// scored-column counter must equal the distinct (model, aspect, day)
// triples the ranks touched: nothing was scored twice.
func TestRankDuringMergeSwapRace(t *testing.T) {
	for _, shards := range []int{1, 3} {
		t.Run(fmt.Sprintf("shards=%d", shards), func(t *testing.T) { testRankDuringPublish(t, shards) })
	}
}

func testRankDuringPublish(t *testing.T, shards int) {
	// Deviation days start at day 7: closing days 20..45 takes the day
	// count from 13 past the 16- and 32-day capacities.
	const warmTo, lastDay = cert.Day(19), cert.Day(45)
	srv, _ := newObsServer(t, shards)
	ctx := context.Background()
	for d := cert.Day(0); d <= warmTo; d++ {
		if err := srv.CloseDay(ctx, d); err != nil {
			t.Fatal(err)
		}
	}
	if err := srv.Retrain(ctx, 0, 15, true); err != nil {
		t.Fatal(err)
	}
	trained := srv.Detector()

	var stop atomic.Bool
	var wg sync.WaitGroup
	rankErr := make(chan error, 1)
	fail := func(err error) {
		select {
		case rankErr <- err:
		default:
		}
	}
	// touched is the ledger of (memo, day) pairs served; a memo stands for
	// its model, which is the property under test.
	type memoDay struct {
		memo *scoreMemo
		day  cert.Day
	}
	var (
		touchedMu sync.Mutex
		touched   = make(map[memoDay]struct{})
	)
	rankOnce := func(from, to cert.Day) error {
		list, p, err := srv.rank(ctx, from, to)
		if err != nil {
			return err
		}
		want, err := p.det.Rank(ctx, from, to)
		if err != nil {
			return err
		}
		if !reflect.DeepEqual(list, want) {
			return fmt.Errorf("rank %v..%v at closed_through %v: memoised list differs from that state's uncached list", from, to, p.closedThrough)
		}
		touchedMu.Lock()
		defer touchedMu.Unlock()
		for d := max(from, p.scores.first); d <= min(to, p.closedThrough); d++ {
			touched[memoDay{p.scores, d}] = struct{}{}
		}
		return nil
	}
	for i := 0; i < 3; i++ {
		wg.Add(1)
		go func(i cert.Day) {
			defer wg.Done()
			for k := 0; !stop.Load(); k++ {
				from, to := cert.Day(10), 15+i
				if k%2 == 1 {
					newest := srv.ClosedThrough()
					from, to = newest-3-i, newest+2
				}
				if err := rankOnce(from, to); err != nil {
					fail(err)
					return
				}
			}
		}(cert.Day(i))
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		for !stop.Load() {
			_ = srv.Status()
			_ = obs.WritePrometheus(io.Discard, srv.MetricsSnapshot(), obs.Gauges{})
		}
	}()
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; !stop.Load(); i++ {
			// Alternate waiting and background retrains; a background one
			// still running makes the next call ErrRetrainInProgress.
			if err := srv.Retrain(ctx, 0, 15, i%2 == 0); err != nil && err != ErrRetrainInProgress {
				time.Sleep(time.Millisecond)
			}
		}
	}()
	wg.Add(1)
	go func() {
		defer wg.Done()
		for !stop.Load() {
			if err := srv.swapIn(trained); err != nil {
				fail(err)
				return
			}
		}
	}()

	for d := warmTo + 1; d <= lastDay; d++ {
		if err := srv.CloseDay(ctx, d); err != nil {
			t.Fatal(err)
		}
	}
	stop.Store(true)
	wg.Wait()
	select {
	case err := <-rankErr:
		t.Fatalf("rank or swap failed during close/swap/retrain churn: %v", err)
	default:
	}

	// The churn must settle into a consistent final state: the published
	// headers cover every closed day and still serve.
	if got := srv.ClosedThrough(); got != lastDay {
		t.Fatalf("closed through %v, want %v", got, lastDay)
	}
	if err := rankOnce(40, lastDay); err != nil {
		t.Fatal(err)
	}
	aspects := len(srv.Detector().AspectNames())
	if got, want := srv.obs.Snapshot().Counter(obs.CounterRankColumnsScored), int64(len(touched)*aspects); got != want {
		t.Fatalf("%d columns scored for %d distinct (model, aspect, day) triples ranked: a column was scored twice or not through the memo", got, want)
	}
}
