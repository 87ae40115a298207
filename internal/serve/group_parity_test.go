package serve

import (
	"context"
	"errors"
	"fmt"
	"math"
	"testing"
	"time"

	"acobe/internal/cert"
	"acobe/internal/features"
	"acobe/internal/testkit"
)

// TestGroupTableMatchesBatch is the group oracle: after live closes, after
// a crash and Open, and after closes resumed on the recovered server, the
// daemon's group measurement table equals features.Table.GroupTable over
// the offline extractor's table for the same events, bit for bit, on every
// closed day. Groups of 1, 3 and 7 members make the 1/|g| factors 1, 1/3
// and 1/7 — the last two inexact in binary — and their members are spread
// over the shards, so a mean that added in another order would show.
func TestGroupTableMatchesBatch(t *testing.T) {
	const last = cert.Day(24)
	users := make([]string, 11)
	for i := range users {
		users[i] = fmt.Sprintf("m%02d", i)
	}
	groups := []string{"solo", "trio", "septet"}
	member := []int{2, 1, 2, 2, 0, 1, 2, 2, 1, 2, 2}

	for _, shards := range shardCounts {
		t.Run(fmt.Sprintf("shards=%d", shards), func(t *testing.T) {
			cfg := shardPersistCfg(shards)
			cfg.Users, cfg.Groups, cfg.Membership = users, groups, member

			pc := PersistConfig{Dir: t.TempDir(), SnapshotEvery: 4}
			plan := &testkit.FaultPlan{Name: "wal-", Op: "write", After: 100_000}
			faulty := pc
			faulty.Hooks = Hooks{
				WrapWriter: func(name string, f WritableFile) WritableFile { return plan.WrapWriter(name, f) },
				BeforeOp:   plan.BeforeOp,
			}
			srv, _, err := Open(cfg, faulty)
			if err != nil {
				t.Fatal(err)
			}
			want := batchGroupTable(t, users, srv.grpTbl.Features(), groups, member, last)

			var ferr error
			for d := cert.Day(0); d <= last && ferr == nil; d++ {
				if ferr = feedGroupDay(srv, d); ferr == nil {
					requireGroupTable(t, "live", srv, want)
				}
			}
			if ferr == nil || !plan.Tripped() {
				t.Fatalf("the failpoint did not stop the stream (err %v, tripped %v): its budget no longer matches", ferr, plan.Tripped())
			}
			if !errors.Is(ferr, ErrPersistenceFailed) {
				t.Fatalf("failure = %v, want ErrPersistenceFailed", ferr)
			}
			shutdown(t, srv)

			rec, info, err := Open(cfg, pc)
			if err != nil {
				t.Fatalf("recovery: %v", err)
			}
			defer shutdown(t, rec)
			if info.ClosedThrough < 4 || !info.SnapshotLoaded {
				t.Fatalf("recovered too little to test the group fill: %+v", info)
			}
			t.Logf("crashed with %v; recovered through %v from the snapshot of day %v, %d events replayed", ferr, info.ClosedThrough, info.SnapshotDay, info.ReplayedEvents)
			requireGroupTable(t, "recovered", rec, want)
			for d := info.ClosedThrough + 1; d <= last; d++ {
				if err := feedGroupDay(rec, d); err != nil {
					t.Fatal(err)
				}
				requireGroupTable(t, "resumed", rec, want)
			}
		})
	}
}

// groupDayEvents is userDayEvents plus a few more file opens that vary by
// user and day, so a group's daily sums reach the integers whose products
// with 1/3 and 1/7 differ from their quotients by 3 and 7.
func groupDayEvents(users []string, d cert.Day) []Event {
	evs := userDayEvents(users, d)
	for i, u := range users {
		for j := 0; j < (3*i+int(d))%6; j++ {
			evs = append(evs, Event{Cert: &cert.Event{Type: cert.EventFile, Time: d.Date().Add(time.Duration(9+j) * time.Hour), User: u,
				Activity: cert.ActFileOpen, Direction: cert.DirLocal, FileID: fmt.Sprintf("G%d-%d", i, (j+int(d))%4)}})
		}
	}
	return evs
}

// feedGroupDay submits and closes one day of groupDayEvents.
func feedGroupDay(s *Server, d cert.Day) error {
	ctx := context.Background()
	if err := s.Submit(ctx, groupDayEvents(s.cfg.Users, d)); err != nil {
		return fmt.Errorf("submit day %v: %w", d, err)
	}
	if err := s.CloseDay(ctx, d); err != nil {
		return fmt.Errorf("close day %v: %w", d, err)
	}
	return nil
}

// batchGroupTable extracts days [0, last] of groupDayEvents offline over
// the given features and returns the batch group table of that extract.
func batchGroupTable(t *testing.T, users, feats, groups []string, member []int, last cert.Day) *features.Table {
	t.Helper()
	x, err := features.NewExtractorFor(users, feats, 0, last)
	if err != nil {
		t.Fatal(err)
	}
	for d := cert.Day(0); d <= last; d++ {
		var evs []cert.Event
		for _, e := range groupDayEvents(users, d) {
			evs = append(evs, *e.Cert)
		}
		if err := x.Consume(d, evs); err != nil {
			t.Fatal(err)
		}
	}
	g, err := x.Table().GroupTable(groups, member)
	if err != nil {
		t.Fatal(err)
	}
	return g
}

// requireGroupTable compares the server's group table with want, bit for
// bit, on every day the server has closed.
func requireGroupTable(t *testing.T, stage string, s *Server, want *features.Table) {
	t.Helper()
	got := s.grpTbl
	for d := cert.Day(0); d <= s.ClosedThrough(); d++ {
		for g := range s.cfg.Groups {
			for f := range got.Features() {
				for fr := 0; fr < got.Frames(); fr++ {
					a, b := got.At(g, f, fr, d), want.At(g, f, fr, d)
					if math.Float64bits(a) != math.Float64bits(b) {
						t.Fatalf("%s: group %s feature %s frame %d day %v: served %v, batch %v",
							stage, s.cfg.Groups[g], got.Features()[f], fr, d, a, b)
					}
				}
			}
		}
	}
}
