package serve

import (
	"context"
	"errors"
	"math/rand"
	"sort"
	"sync"
	"testing"
	"time"

	"acobe/internal/cert"
)

// TestAuditConcurrentLifecycle hammers an audited sharded server with
// everything the audit layer adds, all at once: concurrent provable
// ingest, inclusion-proof requests against freshly acked batches, signed
// rank receipts, snapshot rounds riding the close cadence, and an
// offline verifier walking the directory while it is being written. Its
// job is to give the race detector (make test-race) the audit edges: the
// proof-index map under RLock against shard-goroutine inserts, the Merkle
// scratch tree on the append path, receipt signing at rotation, and
// VerifyAudit's file reads against live appends.
//
// VerifyAudit against a live directory may legitimately fail — the final
// segment can hold a torn, not-yet-complete frame mid-append — so during
// the storm only panics and races count; the post-shutdown verify must
// pass cleanly.
func TestAuditConcurrentLifecycle(t *testing.T) {
	dir := t.TempDir()
	cfg := persistCfg()
	cfg.Shards = 4
	cfg.QueueSize = 32
	p := auditPersist()
	p.Dir = dir
	p.SnapshotEvery = 5
	srv, _, err := Open(cfg, p)
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()

	// Warm up enough closed days for a model, then train it so receipts
	// rank for real during the storm.
	var (
		idMu sync.Mutex
		ids  []uint64
	)
	ack := func(id uint64) {
		idMu.Lock()
		ids = append(ids, id)
		idMu.Unlock()
	}
	for d := cert.Day(0); d <= 30; d++ {
		id, err := srv.SubmitProvable(ctx, persistDayEvents(d))
		if err != nil {
			t.Fatal(err)
		}
		ack(id)
		if err := srv.CloseDay(ctx, d); err != nil {
			t.Fatal(err)
		}
	}
	if err := srv.Retrain(ctx, 0, 25, true); err != nil {
		t.Fatal(err)
	}
	pub := append([]byte(nil), srv.auditPub()...)

	const lastDay = cert.Day(48)
	var wg sync.WaitGroup

	// Writers: several goroutines push provable slices of each open day.
	dayCh := make(chan cert.Day, 64)
	for w := 0; w < 3; w++ {
		w := w
		wg.Add(1)
		go func() {
			defer wg.Done()
			for d := range dayCh {
				evs := persistDayEvents(d)
				var part []Event
				for i := w; i < len(evs); i += 3 {
					part = append(part, evs[i])
				}
				id, err := srv.SubmitProvable(ctx, part)
				if err != nil {
					if errors.Is(err, ErrShuttingDown) || errors.Is(err, context.Canceled) {
						return
					}
					t.Errorf("submit day %v: %v", d, err)
					return
				}
				// A batch racing past its day's close may be filtered to
				// nothing and carry no ID; only acked IDs must prove.
				if id != 0 {
					ack(id)
				}
			}
		}()
	}

	stop := make(chan struct{})

	// Proof readers: prove random acked batches while ingest runs. Every
	// acknowledged batch must prove — the index never lags an ack — until
	// a snapshot round prunes the segments holding it.
	for r := 0; r < 2; r++ {
		r := r
		wg.Add(1)
		go func() {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(100 + r)))
			for {
				select {
				case <-stop:
					return
				default:
				}
				idMu.Lock()
				id := ids[rng.Intn(len(ids))]
				idMu.Unlock()
				n, err := srv.BatchEvents(id)
				if errors.Is(err, ErrUnknownBatch) {
					continue
				}
				if err != nil {
					t.Errorf("batch %d: %v", id, err)
					return
				}
				if n == 0 {
					// A batch that raced past its day's close and was
					// late-filtered to nothing: acked, logged, empty.
					continue
				}
				res, err := srv.Proof(id, rng.Intn(n))
				if errors.Is(err, ErrUnknownBatch) {
					continue // pruned between the two calls
				}
				if err != nil {
					t.Errorf("proof of batch %d: %v", id, err)
					return
				}
				if !res.Proof.Verify(res.Root) {
					t.Errorf("batch %d: live proof does not verify", id)
					return
				}
			}
		}()
	}

	// Receipt requester: signed rank receipts over the closed range.
	wg.Add(1)
	go func() {
		defer wg.Done()
		for {
			select {
			case <-stop:
				return
			default:
			}
			to := srv.ClosedThrough()
			if to < 20 {
				continue
			}
			_, rc, err := srv.RankReceipt(ctx, to-5, to)
			if err != nil {
				if errors.Is(err, ErrNoModel) || errors.Is(err, ErrShuttingDown) {
					continue
				}
				t.Errorf("receipt through %v: %v", to, err)
				return
			}
			if !rc.VerifySig(pub) {
				t.Errorf("live receipt signature does not verify")
				return
			}
		}
	}()

	// Verifier under load: walk the directory while it is written. Errors
	// are expected (torn final frames mid-append); panics and races are
	// the failures this goroutine exists to provoke.
	wg.Add(1)
	go func() {
		defer wg.Done()
		for {
			select {
			case <-stop:
				return
			default:
			}
			_, _ = VerifyAudit(dir, pub)
		}
	}()

	// Closer: staggered day closes (each fifth close snapshots) chasing
	// the writers.
	for d := cert.Day(31); d <= lastDay; d++ {
		for w := 0; w < 3; w++ {
			dayCh <- d
		}
		if d%3 == 0 {
			time.Sleep(time.Millisecond) // let writers race the barrier
		}
		if err := srv.CloseDay(ctx, d); err != nil {
			t.Fatalf("close day %v: %v", d, err)
		}
	}
	close(dayCh)
	close(stop)
	wg.Wait()
	shutdown(t, srv)

	// Quiesced, the full chain must verify, and a recovery must keep a
	// provable suffix of everything acked during the storm.
	if _, err := VerifyAudit(dir, pub); err != nil {
		t.Fatalf("verify after storm: %v", err)
	}
	s2, _ := openAudit(t, dir, 4)
	idMu.Lock()
	all := append([]uint64(nil), ids...)
	idMu.Unlock()
	sort.Slice(all, func(i, j int) bool { return all[i] < all[j] })
	assertProvableSuffix(t, s2, all, nil)
	shutdown(t, s2)
}
