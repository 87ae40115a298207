package serve

import (
	"context"
	"errors"
	"fmt"
	"net/http"
	"net/http/httptest"
	"reflect"
	"strings"
	"testing"

	"acobe/internal/cert"
	"acobe/internal/features"
	"acobe/internal/obs"
	"acobe/internal/testkit"
	"acobe/pkg/acobe"
)

// openDayDetOpts is a small ensemble over the CERT features the fixture
// days move.
func openDayDetOpts() []acobe.Option {
	return []acobe.Option{
		acobe.WithAspects(
			acobe.Aspect{Name: "device", Features: []string{features.FeatDeviceConnection, features.FeatDeviceNewHost}},
			acobe.Aspect{Name: "file", Features: []string{features.FeatFileOpenLocal, features.FeatFileNewOp}},
		),
		acobe.WithSeed(11),
		acobe.WithVotes(1),
		acobe.WithTrainStride(2),
		acobe.WithModelConfig(func(dim int) acobe.ModelConfig {
			cfg := acobe.FastModelConfig(dim)
			cfg.Hidden = []int{12, 6}
			cfg.Epochs = 15
			return cfg
		}),
	}
}

// batchRanks is the offline oracle over the fixture days: the batch
// extractor day by day, the facade end to end.
func batchRanks(t *testing.T, lastDay, trainTo, from cert.Day) []acobe.Ranked {
	t.Helper()
	x, err := features.NewExtractor(testUsers, 0, lastDay)
	if err != nil {
		t.Fatal(err)
	}
	for d := cert.Day(0); d <= lastDay; d++ {
		var evs []cert.Event
		for _, e := range persistDayEvents(d) {
			evs = append(evs, *e.Cert)
		}
		if err := x.Consume(d, evs); err != nil {
			t.Fatal(err)
		}
	}
	opts := append(openDayDetOpts(), acobe.WithGroups(testGroups, testMember), acobe.WithDeviationConfig(testDevCfg()))
	det, err := acobe.NewDetector(x.Table(), opts...)
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	if _, err := det.Fit(ctx, 0, trainTo); err != nil {
		t.Fatal(err)
	}
	list, err := det.Rank(ctx, from, lastDay)
	if err != nil {
		t.Fatal(err)
	}
	return list
}

// TestOpenDaySurvivesSnapshot runs the four-failpoint crash matrix with
// the shape this layout exists for: each day's events arrive before the
// previous day closes, so every close, every snapshot and every crash
// finds a day open — its state is in the extractor's accumulator, in the
// snapshot's open-day blob, or in the WAL tail behind it, never in a
// buffer of raw events. After the crash the directory is recovered at the
// same shard count and must report exactly the acknowledged open-day
// events; the resumed stream must rank exactly as the batch pipeline does.
func TestOpenDaySurvivesSnapshot(t *testing.T) {
	const lastDay, trainTo, rankFrom = cert.Day(29), cert.Day(21), cert.Day(24)
	want := batchRanks(t, lastDay, trainTo, rankFrom)
	ctx := context.Background()

	// ahead streams days (closed, lastDay], each submitted before the day
	// before it closes; held says which open days recovery already holds.
	// It returns the days whose submit was acknowledged and the first error.
	ahead := func(srv *Server, closed cert.Day, held map[cert.Day]int) (acked map[cert.Day]bool, err error) {
		acked = make(map[cert.Day]bool)
		submit := func(d cert.Day) error {
			if d > lastDay || held[d] > 0 {
				return nil
			}
			if err := srv.Submit(ctx, persistDayEvents(d)); err != nil {
				return err
			}
			acked[d] = true
			return nil
		}
		if err := submit(closed + 1); err != nil {
			return acked, err
		}
		for d := closed + 1; d <= lastDay; d++ {
			if err := submit(d + 1); err != nil {
				return acked, err
			}
			if err := srv.CloseDay(ctx, d); err != nil {
				return acked, err
			}
		}
		return acked, nil
	}

	cases := func(shards int) map[string]*testkit.FaultPlan {
		return map[string]*testkit.FaultPlan{
			"mid-record-write":           {Name: "wal-", Op: "write", After: 30_000},
			"mid-rotation":               {Name: "wal-", Op: "create", After: int64(shards) + 2},
			"mid-snapshot":               {Name: "snapshot-", Op: "write", After: 6_000},
			"post-snapshot-pre-truncate": {Name: "wal-", Op: "remove", After: 0},
		}
	}
	for _, shards := range shardCounts {
		for name, plan := range cases(shards) {
			t.Run(fmt.Sprintf("shards=%d/%s", shards, name), func(t *testing.T) {
				cfg := shardPersistCfg(shards)
				cfg.DetectorOptions = openDayDetOpts()
				pc := PersistConfig{Dir: t.TempDir(), SnapshotEvery: 4, SegmentBytes: 12 << 10 / int64(shards)}
				faulty := pc
				faulty.Hooks = Hooks{
					WrapWriter: func(name string, f WritableFile) WritableFile { return plan.WrapWriter(name, f) },
					BeforeOp:   plan.BeforeOp,
				}
				srv, _, err := Open(cfg, faulty)
				if err != nil {
					t.Fatal(err)
				}
				acked, ferr := ahead(srv, -1, nil)
				if ferr == nil || !plan.Tripped() {
					t.Fatalf("the failpoint did not stop the stream (err %v, tripped %v): its budget no longer matches", ferr, plan.Tripped())
				}
				if !errors.Is(ferr, ErrPersistenceFailed) || !errors.Is(ferr, testkit.ErrInjected) {
					t.Fatalf("failure = %v, want ErrPersistenceFailed wrapping ErrInjected", ferr)
				}
				shutdown(t, srv)

				rec, info, err := Open(cfg, pc)
				if err != nil {
					t.Fatalf("recovery: %v", err)
				}
				defer shutdown(t, rec)
				t.Logf("crashed with %v; recovered: snapshot=%v(day %v) replayed=%d events, closed=%v, open=%v",
					ferr, info.SnapshotLoaded, info.SnapshotDay, info.ReplayedEvents, info.ClosedThrough, info.BufferedEvents)
				for d := info.ClosedThrough + 1; d <= lastDay; d++ {
					got, all := info.BufferedEvents[d], len(persistDayEvents(d))
					if acked[d] && got != all {
						t.Fatalf("day %v: acknowledged, recovered %d of %d open-day events", d, got, all)
					}
					if got != 0 && got != all {
						t.Fatalf("day %v: recovered torn, %d of %d events", d, got, all)
					}
				}
				for d := range info.BufferedEvents {
					if d <= info.ClosedThrough {
						t.Fatalf("closed day %v reported open: %v", d, info.BufferedEvents)
					}
				}
				if name == "post-snapshot-pre-truncate" {
					// The crash came right behind a published cut: what is
					// open was read from the snapshots' blobs alone.
					if !info.SnapshotLoaded || info.ReplayedEvents != 0 || len(info.BufferedEvents) != 1 {
						t.Fatalf("expected the open day from the snapshot alone: %+v", info)
					}
				}
				if _, err := ahead(rec, info.ClosedThrough, info.BufferedEvents); err != nil {
					t.Fatalf("resume: %v", err)
				}
				if err := rec.Retrain(ctx, 0, trainTo, true); err != nil {
					t.Fatal(err)
				}
				got, err := rec.Rank(ctx, rankFrom, lastDay)
				if err != nil {
					t.Fatal(err)
				}
				if !reflect.DeepEqual(got, want) {
					t.Fatalf("recovered ranking differs from the batch pipeline's\n got %+v\nwant %+v", got, want)
				}
			})
		}
	}
}

// TestUnknownUserEventsCounted: an event for a user outside the roster is
// accepted and logged, skipped by the extractor, and counted — not as
// ingested, which means "applied to a measurement" — on the shard its ID
// hashes to, live and again when the log is replayed.
func TestUnknownUserEventsCounted(t *testing.T) {
	for _, shards := range shardCounts {
		t.Run(fmt.Sprintf("shards=%d", shards), func(t *testing.T) {
			ctx := context.Background()
			cfg := shardPersistCfg(shards)
			cfg.Observer = obs.NewObserver()
			pc := PersistConfig{Dir: t.TempDir()}
			srv, _, err := Open(cfg, pc)
			if err != nil {
				t.Fatal(err)
			}
			batch := append(persistDayEvents(0), testEvent("stranger", 0), testEvent("nobody", 0))
			if err := srv.Submit(ctx, batch); err != nil {
				t.Fatal(err)
			}
			check := func(s *Server, when string) {
				t.Helper()
				st := s.Status()
				if st.UnknownUserEvents != 2 || st.Ingested != int64(len(batch)-2) {
					t.Fatalf("%s: %d unknown-user and %d ingested events, want 2 and %d", when, st.UnknownUserEvents, st.Ingested, len(batch)-2)
				}
				perShard := int64(0)
				for _, row := range st.ShardStatus {
					perShard += row.Unknown
				}
				if perShard != 2 {
					t.Fatalf("%s: shard rows count %d unknown-user events, want 2", when, perShard)
				}
				prom := httptest.NewRecorder()
				s.Handler().ServeHTTP(prom, httptest.NewRequest(http.MethodGet, "/metrics", nil))
				for _, row := range []string{"acobe_serve_unknown_user_events_total 2\n", "acobe_shard_unknown_user_events_total{shard=\"0\"}"} {
					if !strings.Contains(prom.Body.String(), row) {
						t.Fatalf("%s: /metrics lacks %q:\n%s", when, row, prom.Body)
					}
				}
			}
			if err := srv.CloseDay(ctx, 0); err != nil {
				t.Fatal(err)
			}
			check(srv, "live")
			shutdown(t, srv)

			rec, info, err := Open(cfg, pc)
			if err != nil {
				t.Fatal(err)
			}
			defer shutdown(t, rec)
			if info.ReplayedEvents != len(batch) {
				t.Fatalf("replayed %d events, want %d", info.ReplayedEvents, len(batch))
			}
			check(rec, "replayed")
		})
	}
}

// TestApplyErrorSurfaces: an ingestor that cannot apply a batch fails the
// submit and latches fail-stop when the batch is already logged; in memory,
// where nobody waits for the batch, the next close reports it.
func TestApplyErrorSurfaces(t *testing.T) {
	ctx := context.Background()
	factory := func(users []string, start cert.Day) (Ingestor, error) {
		ing, err := NewCERTIngestor(users, start)
		return failingApply{ing}, err
	}
	cfg := persistCfg()
	cfg.IngestorFactory = factory

	durable, _, err := Open(cfg, PersistConfig{Dir: t.TempDir()})
	if err != nil {
		t.Fatal(err)
	}
	defer shutdown(t, durable)
	if err := durable.Submit(ctx, persistDayEvents(0)); !errors.Is(err, ErrPersistenceFailed) {
		t.Fatalf("submit of a logged batch that failed to apply = %v, want ErrPersistenceFailed", err)
	}
	if err := durable.CloseDay(ctx, 0); !errors.Is(err, ErrPersistenceFailed) {
		t.Fatalf("close after the latch = %v, want ErrPersistenceFailed", err)
	}

	mem, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer shutdown(t, mem)
	if err := mem.Submit(ctx, persistDayEvents(0)); err != nil {
		t.Fatal(err) // acknowledged at enqueue
	}
	if err := mem.CloseDay(ctx, 0); err == nil || errors.Is(err, ErrPersistenceFailed) {
		t.Fatalf("close after a failed in-memory apply = %v, want the apply error", err)
	}
}

type failingApply struct{ *CERTIngestor }

func (failingApply) Apply([]Event) (int, error) { return 0, errors.New("synthetic apply failure") }
