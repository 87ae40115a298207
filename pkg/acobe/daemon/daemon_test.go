package daemon_test

import (
	"context"
	"errors"
	"testing"
	"time"

	"acobe/pkg/acobe"
	"acobe/pkg/acobe/daemon"
)

// TestDaemonDurableRoundTrip exercises the public durability contract end
// to end: open, ingest acknowledged batches, restart, and observe exactly
// the acknowledged state again.
func TestDaemonDurableRoundTrip(t *testing.T) {
	dir := t.TempDir()
	ctx := context.Background()
	cfg := daemon.Config{
		Users: []string{"u1", "u2"},
		Start: 0,
		Deviation: acobe.DeviationConfig{
			Window: 4, MatrixDays: 2, Delta: 3, Epsilon: 1,
		},
	}
	srv, info, err := daemon.Start(cfg, daemon.WithDataDir(dir), daemon.WithFsync(daemon.FsyncClose))
	if err != nil {
		t.Fatal(err)
	}
	if info.SnapshotLoaded || info.ReplayedRecords != 0 {
		t.Fatalf("fresh open reported recovery: %+v", info)
	}
	day := func(d daemon.Day, u string) daemon.Event {
		return daemon.Event{Cert: &daemon.CertEvent{
			Type: daemon.EventLogon, Activity: "Logon",
			Time: d.Date().Add(9 * time.Hour), User: u,
		}}
	}
	for d := daemon.Day(0); d <= 5; d++ {
		if err := srv.Submit(ctx, []daemon.Event{day(d, "u1"), day(d, "u2")}); err != nil {
			t.Fatal(err)
		}
		if err := srv.CloseDay(ctx, d); err != nil {
			t.Fatal(err)
		}
	}
	// One acknowledged batch left open: it must survive the restart.
	if err := srv.Submit(ctx, []daemon.Event{day(6, "u1")}); err != nil {
		t.Fatal(err)
	}
	if err := srv.Shutdown(ctx); err != nil {
		t.Fatal(err)
	}

	srv2, info, err := daemon.Start(cfg, daemon.WithDataDir(dir))
	if err != nil {
		t.Fatal(err)
	}
	defer srv2.Shutdown(ctx)
	if got := srv2.ClosedThrough(); got != 5 {
		t.Fatalf("recovered ClosedThrough = %v, want 5", got)
	}
	if info.BufferedEvents[6] != 1 {
		t.Fatalf("recovered buffered events = %v, want day 6 batch", info.BufferedEvents)
	}
	if st := srv2.Status(); st.Ingested != 13 {
		t.Fatalf("recovered ingested = %d, want 13", st.Ingested)
	}
	if _, err := srv2.Rank(ctx, 0, 5); !errors.Is(err, daemon.ErrNoModel) {
		t.Fatalf("rank without model = %v, want ErrNoModel", err)
	}
}
