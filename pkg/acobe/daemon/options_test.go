package daemon_test

import (
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"acobe/pkg/acobe"
	"acobe/pkg/acobe/daemon"
)

func optTestConfig() daemon.Config {
	return daemon.Config{
		Users: []string{"u1", "u2", "u3"},
		Start: 0,
		Deviation: acobe.DeviationConfig{
			Window: 4, MatrixDays: 2, Delta: 3, Epsilon: 1,
		},
	}
}

func optEvent(d daemon.Day, u string) daemon.Event {
	return daemon.Event{Cert: &daemon.CertEvent{
		Type: daemon.EventLogon, Activity: "Logon",
		Time: d.Date().Add(9 * time.Hour), User: u,
	}}
}

// TestStartInMemory proves the options constructor builds the same
// in-memory daemon New does, with shards and the observer wired through.
func TestStartInMemory(t *testing.T) {
	ctx := context.Background()
	o := daemon.NewObserver()
	srv, info, err := daemon.Start(optTestConfig(),
		daemon.WithShards(2),
		daemon.WithQueueSize(8),
		daemon.WithObserver(o),
	)
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Shutdown(ctx)
	if info != nil {
		t.Fatalf("in-memory Start returned recovery info: %+v", info)
	}
	if err := srv.Submit(ctx, []daemon.Event{optEvent(0, "u1"), optEvent(0, "u3")}); err != nil {
		t.Fatal(err)
	}
	if err := srv.CloseDay(ctx, 0); err != nil {
		t.Fatal(err)
	}
	st := srv.Status()
	if st.Shards != 2 || st.SchemaVersion != daemon.StatusSchemaVersion {
		t.Fatalf("status = %+v", st)
	}
	if st.Metrics == nil || st.Metrics.Counter("events_submitted_total") != 2 {
		t.Fatalf("observer not wired: %+v", st.Metrics)
	}
	if srv.MetricsSnapshot() == nil {
		t.Fatal("MetricsSnapshot returned nil on an instrumented daemon")
	}
}

// TestStartDurable proves WithDataDir routes Start through recovery, and
// the persistence tuning options take effect.
func TestStartDurable(t *testing.T) {
	ctx := context.Background()
	dir := t.TempDir()
	open := func() (*daemon.Server, *daemon.RecoverInfo) {
		t.Helper()
		srv, info, err := daemon.Start(optTestConfig(),
			daemon.WithDataDir(dir),
			daemon.WithFsync(daemon.FsyncClose),
			daemon.WithSnapshotEvery(2),
		)
		if err != nil {
			t.Fatal(err)
		}
		if info == nil {
			t.Fatal("durable Start returned nil recovery info")
		}
		return srv, info
	}

	srv, _ := open()
	for d := daemon.Day(0); d <= 3; d++ {
		if err := srv.Submit(ctx, []daemon.Event{optEvent(d, "u1"), optEvent(d, "u2")}); err != nil {
			t.Fatal(err)
		}
		if err := srv.CloseDay(ctx, d); err != nil {
			t.Fatal(err)
		}
	}
	if st := srv.Status(); st.Persistence == nil || st.Persistence.Fsync != "close" || st.Persistence.SnapshotEvery != 2 {
		t.Fatalf("persistence status = %+v", st.Persistence)
	}
	if err := srv.Shutdown(ctx); err != nil {
		t.Fatal(err)
	}

	srv2, info := open()
	defer srv2.Shutdown(ctx)
	if srv2.ClosedThrough() != 3 {
		t.Fatalf("recovered ClosedThrough = %v, want 3", srv2.ClosedThrough())
	}
	if !info.SnapshotLoaded {
		t.Fatalf("SnapshotEvery=2 over 4 closed days wrote no snapshot: %+v", info)
	}
}

// TestStartRejectsOrphanPersistOptions pins the configuration error: a
// persistence tuning option without WithDataDir must fail loudly.
func TestStartRejectsOrphanPersistOptions(t *testing.T) {
	_, _, err := daemon.Start(optTestConfig(), daemon.WithFsync(daemon.FsyncAlways))
	if err == nil || !strings.Contains(err.Error(), "WithFsync requires WithDataDir") {
		t.Fatalf("err = %v, want WithFsync-requires-WithDataDir", err)
	}
}

// TestHandlerEndpointOptions exercises the re-exported HTTP surface
// options through the public package.
func TestHandlerEndpointOptions(t *testing.T) {
	srv, _, err := daemon.Start(optTestConfig(), daemon.WithObserver(daemon.NewObserver()))
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	defer srv.Shutdown(ctx)
	h := srv.Handler(daemon.WithPprofEndpoint(true))
	if h == nil {
		t.Fatal("nil handler")
	}
}

// TestMetricsWithoutObserverOption: a daemon started without WithObserver
// records anyway — one ingest and one close show up as stage rows in the
// /v1/status metrics and as stage histograms on /metrics.
func TestMetricsWithoutObserverOption(t *testing.T) {
	ctx := context.Background()
	srv, _, err := daemon.Start(optTestConfig())
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Shutdown(ctx)
	if err := srv.Submit(ctx, []daemon.Event{optEvent(0, "u1"), optEvent(0, "u2")}); err != nil {
		t.Fatal(err)
	}
	if err := srv.CloseDay(ctx, 0); err != nil {
		t.Fatal(err)
	}
	h := srv.Handler()
	get := func(path string) []byte {
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, path, nil))
		if rec.Code != http.StatusOK {
			t.Fatalf("GET %s: %d %s", path, rec.Code, rec.Body)
		}
		return rec.Body.Bytes()
	}
	var st daemon.Status
	if err := json.Unmarshal(get("/v1/status"), &st); err != nil {
		t.Fatal(err)
	}
	if st.Metrics == nil {
		t.Fatal("/v1/status carries no metrics")
	}
	for _, stage := range []string{"ingest_submit", "day_close"} {
		if row := st.Metrics.Stage(stage); row.Count != 1 || row.MeanUS <= 0 {
			t.Fatalf("stage %s row %+v, want one timed observation", stage, row)
		}
	}
	prom := string(get("/metrics"))
	for _, want := range []string{
		`acobe_stage_duration_seconds_count{stage="ingest_submit"} 1`,
		`acobe_stage_duration_seconds_count{stage="day_close"} 1`,
	} {
		if !strings.Contains(prom, want) {
			t.Fatalf("/metrics lacks %q:\n%s", want, prom)
		}
	}
}
