package serve

import (
	"bytes"
	"context"
	"crypto/ed25519"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"acobe/internal/audit"
	"acobe/internal/cert"
	"acobe/internal/testkit"
	"acobe/pkg/acobe"
)

// The fixtures under testdata/legacy were written by the last commit that
// still had the unsharded server (Shards=1, persistCfg, SnapshotEvery 3):
// days 0..4 fed and closed — a snapshot at day 2, days 3..4 in the WAL
// tail — plus one open batch for day 5, then a clean shutdown. "plain" is
// audit off (recEvents frames, version-1 files), "audit" is audit on and
// carries the directory's signing key.

// dirListing is a directory tree's file names and sizes.
func dirListing(t *testing.T, dir string) map[string]int64 {
	t.Helper()
	out := map[string]int64{}
	err := filepath.Walk(dir, func(path string, fi os.FileInfo, err error) error {
		if err == nil && !fi.IsDir() {
			out[strings.TrimPrefix(path, dir)] = fi.Size()
		}
		return err
	})
	if err != nil {
		t.Fatal(err)
	}
	return out
}

func TestMigrateLegacyDirectory(t *testing.T) {
	ctx := context.Background()
	const snapDay, closed, open, lastDay = cert.Day(2), cert.Day(4), cert.Day(5), cert.Day(30)
	mkCfg := func() Config {
		cfg := persistCfg()
		cfg.DetectorOptions = []acobe.Option{
			acobe.WithSeed(3), acobe.WithVotes(1),
			acobe.WithModelConfig(func(dim int) acobe.ModelConfig {
				mc := acobe.FastModelConfig(dim)
				mc.Hidden, mc.Epochs = []int{8, 4}, 5
				return mc
			}),
		}
		return cfg
	}
	// finish closes the open day, feeds through lastDay, trains, and ranks.
	finish := func(t *testing.T, s *Server) []acobe.Ranked {
		t.Helper()
		if err := s.CloseDay(ctx, open); err != nil {
			t.Fatal(err)
		}
		feedDays(t, s, open+1, lastDay)
		if err := s.Retrain(ctx, 0, 25, true); err != nil {
			t.Fatal(err)
		}
		list, err := s.Rank(ctx, 26, lastDay)
		if err != nil {
			t.Fatal(err)
		}
		return list
	}

	// The fresh run every migrated directory must equal (durable, so that
	// the open day's submit returns once its events are applied).
	ref, _, err := Open(mkCfg(), PersistConfig{Dir: t.TempDir()})
	if err != nil {
		t.Fatal(err)
	}
	defer shutdown(t, ref)
	feedDays(t, ref, 0, closed)
	if err := ref.Submit(ctx, persistDayEvents(open)); err != nil {
		t.Fatal(err)
	}
	wantState := shardStateBytes(t, ref)
	wantList := finish(t, ref)

	for _, name := range []string{"plain", "audit"} {
		t.Run(name, func(t *testing.T) {
			audited := name == "audit"
			dir := t.TempDir()
			if err := testkit.CopyTree(filepath.Join("testdata", "legacy", name), dir); err != nil {
				t.Fatal(err)
			}
			pc := PersistConfig{Dir: dir, SnapshotEvery: 3, Audit: audited}
			var pub ed25519.PublicKey
			if audited {
				if pub, err = audit.LoadPublicKey(filepath.Join(dir, audit.PubFileName)); err != nil {
					t.Fatal(err)
				}
			}

			// Unmigrated: refused, naming a legacy file and the way out.
			refused := func(err error) {
				t.Helper()
				if err == nil || !strings.Contains(err.Error(), "-migrate") || !strings.Contains(err.Error(), "snapshot-00000002.snap") {
					t.Fatalf("unmigrated directory: %v, want a refusal naming snapshot-00000002.snap and -migrate", err)
				}
			}
			_, _, err := Open(mkCfg(), pc)
			refused(err)
			if audited {
				_, err = VerifyAudit(dir, pub)
				refused(err)
			}

			rep, err := Migrate(dir)
			if err != nil {
				t.Fatal(err)
			}
			if rep.Segments != 1 || rep.Snapshots != 1 || rep.Audit != audited {
				t.Fatalf("migrate report %+v, want 1 segment, 1 snapshot, audit=%v", rep, audited)
			}
			before := dirListing(t, dir)
			for _, want := range []string{"/wal/wal-shard0-00000001.log", "/snapshot-shard0-00000002.snap", "/manifest-00000002.mf"} {
				if _, ok := before[want]; !ok {
					t.Fatalf("migrated directory lacks %s: %v", want, before)
				}
			}
			if rep, err = Migrate(dir); err != nil || rep.Segments+rep.Snapshots != 0 {
				t.Fatalf("second migrate = %+v, %v; want a no-op", rep, err)
			}
			if after := dirListing(t, dir); !reflect.DeepEqual(after, before) {
				t.Fatalf("second migrate changed the directory: %v → %v", before, after)
			}

			b, info, err := Open(mkCfg(), pc)
			if err != nil {
				t.Fatal(err)
			}
			if !info.SnapshotLoaded || info.SnapshotDay != snapDay || info.ClosedThrough != closed ||
				info.BufferedEvents[open] != len(persistDayEvents(open)) {
				shutdown(t, b)
				t.Fatalf("recovered %+v, want snapshot day %v, closed through %v, day %v buffered", info, snapDay, closed, open)
			}
			if got := shardStateBytes(t, b); !bytes.Equal(got, wantState) {
				shutdown(t, b)
				t.Fatal("migrated directory's recovered state differs from a fresh run's")
			}
			list := finish(t, b)
			shutdown(t, b)
			if !reflect.DeepEqual(list, wantList) {
				t.Fatalf("ranked list differs from a fresh run's:\n got %v\nwant %v", list, wantList)
			}
			if audited {
				vr, err := VerifyAudit(dir, pub)
				if err != nil {
					t.Fatalf("migrated, resumed directory does not verify: %v", err)
				}
				if vr.Shards != 1 || vr.Manifests == 0 {
					t.Fatalf("verify report %+v, want one shard and its manifests", vr)
				}
			}
		})
	}
}
