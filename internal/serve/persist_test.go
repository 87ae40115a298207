package serve

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"os"
	"slices"
	"testing"
	"time"

	"acobe/internal/cert"
	"acobe/internal/testkit"
)

// persistCfg is the shared server shape for persistence tests: the real
// CERT ingestor (persistence requires a StatefulIngestor) with groups on,
// so snapshots exercise every state blob.
func persistCfg() Config {
	return Config{
		Users:      testUsers,
		Groups:     testGroups,
		Membership: testMember,
		Start:      0,
		Deviation:  testDevCfg(),
		QueueSize:  16,
	}
}

// userDayEvents is a deterministic synthetic day for the given users:
// logons, device connects with rotating hosts, file and upload activity —
// enough variety to move the first-seen trackers and several features.
func userDayEvents(users []string, d cert.Day) []Event {
	evs := make([]Event, 0, 4*len(users))
	for i, u := range users {
		at := func(h int) time.Time { return d.Date().Add(time.Duration(h) * time.Hour) }
		evs = append(evs,
			Event{Cert: &cert.Event{Type: cert.EventLogon, Time: at(8 + i%3), User: u, Activity: cert.ActLogon}},
			Event{Cert: &cert.Event{Type: cert.EventDevice, Time: at(10), User: u, PC: fmt.Sprintf("PC-%d", (int(d)+i)%4), Activity: cert.ActConnect}},
			Event{Cert: &cert.Event{Type: cert.EventFile, Time: at(11), User: u, Activity: cert.ActFileOpen, Direction: cert.DirLocal, FileID: fmt.Sprintf("F%d", (int(d)+i)%5)}},
		)
		if (int(d)+i)%3 == 0 {
			evs = append(evs, Event{Cert: &cert.Event{Type: cert.EventHTTP, Time: at(14), User: u, Activity: cert.ActUpload, FileType: "doc", Domain: fmt.Sprintf("d%d.com", i%2)}})
		}
	}
	return evs
}

// persistDayEvents is userDayEvents for the fixture users.
func persistDayEvents(d cert.Day) []Event { return userDayEvents(testUsers, d) }

// feedUserDays submits and closes days [from, to] of userDayEvents for the
// server's own users, stopping at the first failure.
func feedUserDays(s *Server, from, to cert.Day) error {
	ctx := context.Background()
	for d := from; d <= to; d++ {
		if err := s.Submit(ctx, userDayEvents(s.cfg.Users, d)); err != nil {
			return fmt.Errorf("submit day %v: %w", d, err)
		}
		if err := s.CloseDay(ctx, d); err != nil {
			return fmt.Errorf("close day %v: %w", d, err)
		}
	}
	return nil
}

// feedDays is feedUserDays that must succeed.
func feedDays(t *testing.T, s *Server, from, to cert.Day) {
	t.Helper()
	if err := feedUserDays(s, from, to); err != nil {
		t.Fatal(err)
	}
}

// serverStateBytes serializes the full ingest state (extractor, its open
// days, individual and group windows). Byte equality is deep state equality — every encoder
// is deterministic.
func serverStateBytes(t *testing.T, s *Server) []byte {
	t.Helper()
	var buf bytes.Buffer
	for _, sh := range s.shards {
		if sh.ing == nil {
			continue
		}
		ing := sh.ing.(StatefulIngestor)
		if err := ing.SaveState(&buf); err != nil {
			t.Fatal(err)
		}
		var open []cert.Day
		for d := range ing.OpenDays() {
			open = append(open, d)
		}
		slices.Sort(open)
		for _, d := range open {
			if err := ing.SaveOpenDay(&buf, d); err != nil {
				t.Fatal(err)
			}
		}
		if err := sh.ind.SaveState(&buf); err != nil {
			t.Fatal(err)
		}
	}
	if s.grp != nil {
		if err := s.grpTbl.SaveState(&buf); err != nil {
			t.Fatal(err)
		}
		if err := s.grp.SaveState(&buf); err != nil {
			t.Fatal(err)
		}
	}
	return buf.Bytes()
}

// referenceStateBytes runs an uninterrupted in-memory server over days
// [0, to] and returns its state encoding.
func referenceStateBytes(t *testing.T, to cert.Day) []byte {
	t.Helper()
	srv, err := New(persistCfg())
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Shutdown(context.Background())
	feedDays(t, srv, 0, to)
	return serverStateBytes(t, srv)
}

func shutdown(t *testing.T, s *Server) {
	t.Helper()
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := s.Shutdown(ctx); err != nil {
		t.Fatal(err)
	}
}

func TestPersistCleanShutdownRecovery(t *testing.T) {
	dir := t.TempDir()
	ctx := context.Background()

	a, info, err := Open(persistCfg(), PersistConfig{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	if info.SnapshotLoaded || info.ReplayedRecords != 0 || info.ClosedThrough != -1 {
		t.Fatalf("fresh open reported recovery: %+v", info)
	}
	feedDays(t, a, 0, 24)
	// Two open-day batches that must survive the restart as buffered.
	if err := a.Submit(ctx, persistDayEvents(25)); err != nil {
		t.Fatal(err)
	}
	if err := a.Submit(ctx, persistDayEvents(26)); err != nil {
		t.Fatal(err)
	}
	wantState := serverStateBytes(t, a)
	wantIngested := a.Status().Ingested
	shutdown(t, a)

	b, info, err := Open(persistCfg(), PersistConfig{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	defer shutdown(t, b)
	if info.ClosedThrough != 24 {
		t.Fatalf("recovered ClosedThrough = %v, want 24", info.ClosedThrough)
	}
	if info.TornBytes != 0 {
		t.Fatalf("clean shutdown left %d torn bytes", info.TornBytes)
	}
	want25, want26 := len(persistDayEvents(25)), len(persistDayEvents(26))
	if info.BufferedEvents[25] != want25 || info.BufferedEvents[26] != want26 {
		t.Fatalf("recovered buffered events %v, want day25=%d day26=%d", info.BufferedEvents, want25, want26)
	}
	if got := serverStateBytes(t, b); !bytes.Equal(got, wantState) {
		t.Fatal("recovered state differs from pre-shutdown state")
	}
	if got := b.Status().Ingested; got != wantIngested {
		t.Fatalf("recovered ingested counter = %d, want %d", got, wantIngested)
	}

	// Resuming the stream must land exactly where an uninterrupted run
	// does. Days 25 and 26 were already submitted (recovered as buffered),
	// so the resume closes them without resubmitting, then continues.
	for d := cert.Day(25); d <= 26; d++ {
		if err := b.CloseDay(ctx, d); err != nil {
			t.Fatalf("close recovered day %v: %v", d, err)
		}
	}
	feedDays(t, b, 27, 30)
	if got, want := serverStateBytes(t, b), referenceStateBytes(t, 30); !bytes.Equal(got, want) {
		t.Fatal("resumed state differs from uninterrupted run")
	}
}

func TestPersistBoundedReplay(t *testing.T) {
	for _, shards := range []int{1, 3} {
		t.Run(fmt.Sprintf("shards=%d", shards), func(t *testing.T) {
			dir := t.TempDir()
			pc := PersistConfig{Dir: dir, SnapshotEvery: 10, SegmentBytes: 4096}

			a, _, err := Open(shardPersistCfg(shards), pc)
			if err != nil {
				t.Fatal(err)
			}
			feedDays(t, a, 0, 36)
			shutdown(t, a)

			// Snapshots landed at days 9, 19, 29; only the newest two survive.
			for k := 0; k < shards; k++ {
				snaps, err := listSnapshots(dir, snapShardPrefix(k))
				if err != nil {
					t.Fatal(err)
				}
				if len(snaps) != 2 || snaps[0].num != 29 || snaps[1].num != 19 {
					t.Fatalf("shard %d retained snapshots = %v, want days 29 and 19", k, snaps)
				}
			}

			b, info, err := Open(shardPersistCfg(shards), pc)
			if err != nil {
				t.Fatal(err)
			}
			defer shutdown(t, b)
			if !info.SnapshotLoaded || info.SnapshotDay != 29 {
				t.Fatalf("recovered from snapshot day %v (loaded=%v), want 29", info.SnapshotDay, info.SnapshotLoaded)
			}
			// The replay is bounded to the tail behind the snapshot: days
			// 30..36, each one batch part (testUsers all hash onto one
			// shard) plus one close barrier per shard.
			if want := 7 * (1 + shards); info.ReplayedRecords != want {
				t.Fatalf("replayed %d records, want %d", info.ReplayedRecords, want)
			}
			if got, want := shardStateBytes(t, b), referenceShardState(t, shards, 36); !bytes.Equal(got, want) {
				t.Fatal("snapshot+tail recovery differs from uninterrupted run")
			}
		})
	}
}

// TestPersistTornTailTruncated is testTornTail's one-shard input: nothing
// but the torn stream to recover from.
func TestPersistTornTailTruncated(t *testing.T) { testTornTail(t, 1) }

func TestPersistFailStop(t *testing.T) {
	dir := t.TempDir()
	ctx := context.Background()
	plan := &testkit.FaultPlan{Name: "wal-", Op: "write", After: 2000}
	a, _, err := Open(persistCfg(), PersistConfig{
		Dir:   dir,
		Hooks: Hooks{WrapWriter: func(name string, f WritableFile) WritableFile { return plan.WrapWriter(name, f) }, BeforeOp: plan.BeforeOp},
	})
	if err != nil {
		t.Fatal(err)
	}
	var failedAt cert.Day = -1
	for d := cert.Day(0); d <= 40; d++ {
		if err := a.Submit(ctx, persistDayEvents(d)); err != nil {
			if !errors.Is(err, ErrPersistenceFailed) || !errors.Is(err, testkit.ErrInjected) {
				t.Fatalf("submit failure = %v, want ErrPersistenceFailed wrapping ErrInjected", err)
			}
			failedAt = d
			break
		}
		if err := a.CloseDay(ctx, d); err != nil {
			if !errors.Is(err, ErrPersistenceFailed) {
				t.Fatalf("close failure = %v, want ErrPersistenceFailed", err)
			}
			failedAt = d
			break
		}
	}
	if failedAt < 0 {
		t.Fatal("fault never fired")
	}
	// Fail-stop: all later work is refused immediately with the latched
	// error; nothing half-applies.
	if err := a.Submit(ctx, persistDayEvents(failedAt+1)); !errors.Is(err, ErrPersistenceFailed) {
		t.Fatalf("submit after failure = %v, want ErrPersistenceFailed", err)
	}
	if err := a.CloseDay(ctx, failedAt+1); !errors.Is(err, ErrPersistenceFailed) {
		t.Fatalf("close after failure = %v, want ErrPersistenceFailed", err)
	}
	if st := a.Status(); st.PersistError == "" {
		t.Fatal("status does not surface the persistence failure")
	}
	shutdown(t, a)

	// The surviving prefix recovers into exactly the state of an
	// uninterrupted run over the durable days.
	b, info, err := Open(persistCfg(), PersistConfig{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	defer shutdown(t, b)
	if info.ClosedThrough >= failedAt {
		t.Fatalf("recovered ClosedThrough %v not behind failure day %v", info.ClosedThrough, failedAt)
	}
	if info.ClosedThrough >= 0 {
		if got, want := serverStateBytes(t, b), referenceStateBytes(t, info.ClosedThrough); !bytes.Equal(got, want) {
			t.Fatal("recovered prefix state differs from uninterrupted run over the same days")
		}
	}
}

func TestPersistSnapshotFallback(t *testing.T) {
	for _, shards := range []int{1, 3} {
		t.Run(fmt.Sprintf("shards=%d", shards), func(t *testing.T) {
			dir := t.TempDir()
			pc := PersistConfig{Dir: dir, SnapshotEvery: 5}
			a, _, err := Open(shardPersistCfg(shards), pc)
			if err != nil {
				t.Fatal(err)
			}
			feedDays(t, a, 0, 22) // snapshots at 4, 9, 14, 19; retained: 19, 14
			shutdown(t, a)

			// Corrupt one shard's newest snapshot in the middle; recovery
			// must fall back a whole generation and replay the longer tail.
			path := snapPath(dir, snapShardPrefix(shards-1), 19)
			data, err := os.ReadFile(path)
			if err != nil {
				t.Fatal(err)
			}
			data[len(data)/2] ^= 0xff
			if err := os.WriteFile(path, data, 0o644); err != nil {
				t.Fatal(err)
			}

			b, info, err := Open(shardPersistCfg(shards), pc)
			if err != nil {
				t.Fatal(err)
			}
			defer shutdown(t, b)
			if !info.SnapshotLoaded || info.SnapshotDay != 14 {
				t.Fatalf("fell back to snapshot day %v (loaded=%v), want 14", info.SnapshotDay, info.SnapshotLoaded)
			}
			if info.ClosedThrough != 22 {
				t.Fatalf("recovered ClosedThrough = %v, want 22", info.ClosedThrough)
			}
			if got, want := shardStateBytes(t, b), referenceShardState(t, shards, 22); !bytes.Equal(got, want) {
				t.Fatal("fallback recovery differs from uninterrupted run")
			}
		})
	}
}
