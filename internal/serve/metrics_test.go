package serve

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"log/slog"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"acobe/internal/cert"
	"acobe/internal/obs"
	"acobe/internal/testkit"
)

// newObsServer builds an instrumented server over the stub measurement
// factory at the given shard count.
func newObsServer(t *testing.T, shards int) (*Server, *obs.Observer) {
	t.Helper()
	o := obs.NewObserver()
	srv, err := New(Config{
		Users:           testUsers,
		Groups:          testGroups,
		Membership:      testMember,
		Start:           0,
		Deviation:       testDevCfg(),
		IngestorFactory: stubShardFactory(testUsers),
		Shards:          shards,
		DetectorOptions: testDetOpts(),
		QueueSize:       16,
		Observer:        o,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		_ = srv.Shutdown(ctx)
	})
	return srv, o
}

// testEvent is one valid CERT logon for a user on a day.
func testEvent(user string, d cert.Day) Event {
	return Event{Cert: &cert.Event{Type: cert.EventLogon, Activity: cert.ActLogon,
		Time: d.Date().Add(9 * time.Hour), User: user, PC: "PC-1"}}
}

// feedDays drives a deterministic ingest schedule: for each day, one
// batch holding (1 + (d+u) mod 3) events per user, then the day's close.
// Returns the number of events submitted.
func feedObsDays(t *testing.T, srv *Server, days int) int {
	t.Helper()
	ctx := context.Background()
	total := 0
	for d := cert.Day(0); d < cert.Day(days); d++ {
		var batch []Event
		for u, name := range testUsers {
			for i := 0; i < 1+(int(d)+u)%3; i++ {
				batch = append(batch, testEvent(name, d))
			}
		}
		if err := srv.Submit(ctx, batch); err != nil {
			t.Fatal(err)
		}
		total += len(batch)
		if err := srv.CloseDay(ctx, d); err != nil {
			t.Fatal(err)
		}
	}
	return total
}

// TestMetricsParityAcrossShards is the merge-correctness proof: at any
// shard count, the merged scrape accounts for every submitted event
// exactly once — fresh applies plus late drops sum to the submit counter.
func TestMetricsParityAcrossShards(t *testing.T) {
	ctx := context.Background()
	for _, shards := range []int{1, 3, 8} {
		t.Run(fmt.Sprintf("shards%d", shards), func(t *testing.T) {
			srv, _ := newObsServer(t, shards)
			total := feedObsDays(t, srv, 5)

			// A batch aimed at an already-closed day must surface as late
			// drops, not vanish.
			lateBatch := []Event{testEvent("u0", 0), testEvent("u3", 1), testEvent("u5", 0)}
			if err := srv.Submit(ctx, lateBatch); err != nil {
				t.Fatal(err)
			}
			total += len(lateBatch)
			// The next barrier guarantees the late batch drained.
			if err := srv.CloseDay(ctx, 5); err != nil {
				t.Fatal(err)
			}

			snap := srv.MetricsSnapshot()
			if snap == nil {
				t.Fatal("instrumented server returned nil snapshot")
			}
			if got := snap.Counter(obs.CounterEventsSubmitted); got != int64(total) {
				t.Fatalf("events_submitted_total = %d, want %d", got, total)
			}
			var accounted int64
			for _, sh := range snap.Shards {
				accounted += sh.Ingested + sh.Late
			}
			if accounted != int64(total) {
				t.Fatalf("sum(ingested+late) = %d, want every one of %d events counted exactly once", accounted, total)
			}
			if len(snap.Shards) != shards {
				t.Fatalf("shard rows = %d, want %d", len(snap.Shards), shards)
			}
			if got := snap.Counter(obs.CounterDayCloses); got != 6 {
				t.Fatalf("day_closes_total = %d, want 6", got)
			}
			if got := snap.Stage(obs.StageSubmit).Count; got != 6 {
				t.Fatalf("submit stage count = %d, want 6 batches", got)
			}
			if snap.Stage(obs.StageApply).Count == 0 {
				t.Fatal("apply stage recorded nothing")
			}
			// The same numbers must flow through the status report.
			st := srv.Status()
			if st.Ingested+st.Late != int64(total) {
				t.Fatalf("status ingested+late = %d, want %d", st.Ingested+st.Late, total)
			}
			if st.Metrics == nil || st.Metrics.Counter(obs.CounterEventsSubmitted) != int64(total) {
				t.Fatalf("status metrics disagree with scrape: %+v", st.Metrics)
			}
		})
	}
}

// normalizeStatus zeroes the wall-clock-dependent fields so the report
// diffs stably: uptimes, every latency statistic, and the queue
// high-water marks (scheduling-dependent). Counts stay.
func normalizeStatus(st *Status) {
	st.UptimeSeconds = 0
	if st.Metrics == nil {
		return
	}
	st.Metrics.UptimeSeconds = 0
	for i := range st.Metrics.Stages {
		s := &st.Metrics.Stages[i]
		s.MeanUS, s.P50US, s.P90US, s.P99US, s.MaxUS = 0, 0, 0, 0, 0
	}
	for i := range st.Metrics.Shards {
		st.Metrics.Shards[i].QueueHWM = 0
	}
}

// TestStatusGolden pins the versioned /v1/status schema over real HTTP at
// one and four shards: field names, nesting, and the deterministic counts
// are all part of the contract.
func TestStatusGolden(t *testing.T) {
	for _, shards := range []int{1, 4} {
		t.Run(fmt.Sprintf("shards%d", shards), func(t *testing.T) {
			srv, _ := newObsServer(t, shards)
			ts := httptest.NewServer(srv.Handler())
			defer ts.Close()

			var lines strings.Builder
			for _, name := range testUsers {
				b, err := json.Marshal(testEvent(name, 0))
				if err != nil {
					t.Fatal(err)
				}
				lines.Write(b)
				lines.WriteByte('\n')
			}
			resp, err := ts.Client().Post(ts.URL+"/v1/ingest", "application/x-ndjson", strings.NewReader(lines.String()))
			if err != nil {
				t.Fatal(err)
			}
			resp.Body.Close()
			if resp.StatusCode != http.StatusOK {
				t.Fatalf("ingest: %d", resp.StatusCode)
			}
			for d := 0; d <= 1; d++ {
				resp, err := ts.Client().Post(ts.URL+fmt.Sprintf("/v1/close?day=%d", d), "", nil)
				if err != nil {
					t.Fatal(err)
				}
				resp.Body.Close()
				if resp.StatusCode != http.StatusOK {
					t.Fatalf("close day %d: %d", d, resp.StatusCode)
				}
			}

			resp, err = ts.Client().Get(ts.URL + "/v1/status")
			if err != nil {
				t.Fatal(err)
			}
			body, err := io.ReadAll(resp.Body)
			resp.Body.Close()
			if err != nil {
				t.Fatal(err)
			}
			if resp.StatusCode != http.StatusOK {
				t.Fatalf("status: %d %s", resp.StatusCode, body)
			}
			var st Status
			if err := json.Unmarshal(body, &st); err != nil {
				t.Fatalf("status decode: %v\n%s", err, body)
			}
			if st.SchemaVersion != StatusSchemaVersion {
				t.Fatalf("schema_version = %d, want %d", st.SchemaVersion, StatusSchemaVersion)
			}
			normalizeStatus(&st)
			got, err := json.MarshalIndent(st, "", "  ")
			if err != nil {
				t.Fatal(err)
			}
			testkit.Golden(t, fmt.Sprintf("status_shards%d.json", shards), append(got, '\n'))
		})
	}
}

// TestMetricsScrape exercises GET /metrics end to end at one and four
// shards: content type, the stable family names, and counter values that
// must match what was submitted.
func TestMetricsScrape(t *testing.T) {
	for _, shards := range []int{1, 4} {
		t.Run(fmt.Sprintf("shards%d", shards), func(t *testing.T) {
			srv, _ := newObsServer(t, shards)
			total := feedObsDays(t, srv, 3)
			ts := httptest.NewServer(srv.Handler())
			defer ts.Close()

			resp, err := ts.Client().Get(ts.URL + "/metrics")
			if err != nil {
				t.Fatal(err)
			}
			body, err := io.ReadAll(resp.Body)
			resp.Body.Close()
			if err != nil {
				t.Fatal(err)
			}
			if resp.StatusCode != http.StatusOK {
				t.Fatalf("metrics: %d", resp.StatusCode)
			}
			if ct := resp.Header.Get("Content-Type"); !strings.Contains(ct, "version=0.0.4") {
				t.Fatalf("content type %q is not the text exposition format", ct)
			}
			out := string(body)
			for _, want := range []string{
				fmt.Sprintf("acobe_events_submitted_total %d", total),
				fmt.Sprintf("acobe_shards %d", shards),
				fmt.Sprintf("acobe_users %d", len(testUsers)),
				"acobe_day_closes_total 3",
				`acobe_stage_duration_seconds_count{stage="ingest_submit"} 3`,
				fmt.Sprintf(`acobe_shard_ingested_events_total{shard="%d"}`, shards-1),
				"acobe_closed_through_day 2",
				"acobe_rank_columns_scored_total 0",
				"acobe_rank_columns_reused_total 0",
				`acobe_stage_duration_seconds_count{stage="rank_fill"} 0`,
			} {
				if !strings.Contains(out, want) {
					t.Fatalf("scrape missing %q:\n%s", want, out)
				}
			}
		})
	}
}

// TestHandlerOptions proves the HTTP surface: metrics and healthz always
// mounted (a server configured with no observer records into its own),
// pprof per option, and the audit endpoints only on a server with a data
// directory.
func TestHandlerOptions(t *testing.T) {
	srv := newTestServer(t, newStubIngestor(t, 0), 16)

	get := func(h http.Handler, path string) *httptest.ResponseRecorder {
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, path, nil))
		return rec
	}

	// Default surface: metrics and healthz on, pprof off.
	h := srv.Handler()
	if rec := get(h, "/metrics"); rec.Code != http.StatusOK || !strings.Contains(rec.Body.String(), "acobe_stage_duration_seconds") {
		t.Fatalf("default /metrics: %d %q", rec.Code, rec.Body.String())
	}
	if rec := get(h, "/healthz"); rec.Code != http.StatusOK {
		t.Fatalf("default healthz: %d", rec.Code)
	}
	if rec := get(h, "/debug/pprof/"); rec.Code != http.StatusNotFound {
		t.Fatalf("pprof mounted by default: %d", rec.Code)
	}

	if rec := get(h, "/v1/proof?batch=1"); rec.Code != http.StatusNotFound {
		t.Fatalf("proof endpoint mounted on an in-memory server: %d", rec.Code)
	}
	if rec := get(srv.Handler(WithPprof(true)), "/debug/pprof/"); rec.Code != http.StatusOK {
		t.Fatalf("pprof after WithPprof(true): %d", rec.Code)
	}

	// The audit endpoints follow the data directory.
	aud, _ := openAudit(t, t.TempDir(), 1)
	defer shutdown(t, aud)
	if rec := get(aud.Handler(), "/v1/proof?batch=1"); rec.Code != http.StatusNotFound || !strings.Contains(rec.Body.String(), "unknown batch") {
		t.Fatalf("proof of an unknown batch on a durable server: %d %q", rec.Code, rec.Body.String())
	}
}

// TestConcurrentScrapeIngestRetrain runs scrapes, ingest, day closes, and
// retrains against each other — the race detector's view of the
// observer's atomics and the status overlay.
func TestConcurrentScrapeIngestRetrain(t *testing.T) {
	srv, o := newObsServer(t, 3)
	ctx := context.Background()
	var stop atomic.Bool
	var wg sync.WaitGroup

	for i := 0; i < 3; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for !stop.Load() {
				_ = srv.Status()
				_ = obs.WritePrometheus(io.Discard, srv.MetricsSnapshot(), obs.Gauges{})
			}
		}()
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		for !stop.Load() {
			err := srv.Retrain(ctx, 0, 10, true)
			if err != nil && err != ErrRetrainInProgress {
				// Fit errors on a short history are expected; a panic or
				// race is what this test is for.
				time.Sleep(time.Millisecond)
			}
		}
	}()

	for d := cert.Day(0); d <= 20; d++ {
		batch := []Event{testEvent("u0", d), testEvent("u4", d), testEvent("u5", d)}
		if err := srv.Submit(ctx, batch); err != nil {
			t.Fatal(err)
		}
		if err := srv.CloseDay(ctx, d); err != nil {
			t.Fatal(err)
		}
	}
	stop.Store(true)
	wg.Wait()

	if snap := o.Snapshot(); snap.Counter(obs.CounterDayCloses) != 21 {
		t.Fatalf("day closes = %d, want 21", snap.Counter(obs.CounterDayCloses))
	}
}

// TestSnapshotAndRecoveryLayers: the two costs of the durable path are
// measured layers. Every shard's snapshot file records one snapshot_encode
// (encode, hash, write) and one snapshot_sync (fsync, rename, directory
// fsync) beside the round's snapshot stage; a reopened server's status
// carries what its recovery did and where the time went; and Open says the
// same in one log line.
func TestSnapshotAndRecoveryLayers(t *testing.T) {
	const shards, rounds = 2, 2
	o := obs.NewObserver()
	cfg := spanCfg(t, shards)
	cfg.Observer = o
	pc := PersistConfig{Dir: t.TempDir(), SnapshotEvery: 2}
	a, _, err := Open(cfg, pc)
	if err != nil {
		t.Fatal(err)
	}
	if err := feedUserDays(a, 0, 2*rounds); err != nil {
		t.Fatal(err)
	}
	snap := a.MetricsSnapshot()
	for stage, want := range map[string]uint64{
		obs.StageSnapshot: rounds, obs.StageSnapEncode: rounds * shards, obs.StageSnapSync: rounds * shards,
	} {
		if got := snap.Stage(stage).Count; got != want {
			t.Fatalf("stage %s observed %d times, want %d", stage, got, want)
		}
	}
	shutdown(t, a)

	var logged strings.Builder
	prev := slog.Default()
	slog.SetDefault(slog.New(slog.NewTextHandler(&logged, nil)))
	b, info, err := Open(cfg, pc)
	slog.SetDefault(prev)
	if err != nil {
		t.Fatal(err)
	}
	defer shutdown(t, b)
	if !info.SnapshotLoaded || info.ReplayedEvents == 0 {
		t.Fatalf("recovered %+v, want a snapshot and a tail", info)
	}
	if info.SnapshotLoadSeconds <= 0 || info.WalkSeconds <= 0 || info.ReplaySeconds <= 0 || info.PublishSeconds <= 0 {
		t.Fatalf("recovery phases not timed: %+v", info)
	}
	if n := strings.Count(logged.String(), "\n"); n != 1 {
		t.Fatalf("Open logged %d lines, want one:\n%s", n, logged.String())
	}
	for _, want := range []string{
		`msg="serve: recovered"`, "snapshot_loaded=true", fmt.Sprintf("snapshot_day=%d", info.SnapshotDay),
		fmt.Sprintf("closed_through=%d", info.ClosedThrough), fmt.Sprintf("replayed_events=%d", info.ReplayedEvents),
		"snapshot_load_s=", "walk_s=", "replay_s=", "publish_s=",
	} {
		if !strings.Contains(logged.String(), want) {
			t.Fatalf("recovery log line lacks %q:\n%s", want, logged.String())
		}
	}
	body, err := json.Marshal(b.Status())
	if err != nil {
		t.Fatal(err)
	}
	var st struct {
		Persistence struct {
			Recovery map[string]any `json:"recovery"`
		} `json:"persistence"`
	}
	if err := json.Unmarshal(body, &st); err != nil {
		t.Fatal(err)
	}
	for _, key := range []string{"snapshot_loaded", "snapshot_day", "replayed_events", "closed_through", "snapshot_load_s", "walk_s", "replay_s", "publish_s"} {
		if _, ok := st.Persistence.Recovery[key]; !ok {
			t.Fatalf("status persistence.recovery lacks %q: %s", key, body)
		}
	}
}

// TestLifecycleLogLines: every snapshot round logs one `serve: snapshot
// cut` line — its day, the round's seconds and the slowest shard's
// encode/sync split — the first persistence failure logs one `serve:
// persistence failed` line carrying the error, however many calls meet the
// latch after it, and a retrain that publishes its model logs one `serve:
// retrain swapped` line: the training span, the closed-through day of the
// state the model was swapped into and the fit's seconds.
func TestLifecycleLogLines(t *testing.T) {
	var logged strings.Builder
	prev := slog.Default()
	slog.SetDefault(slog.New(slog.NewTextHandler(&logged, nil)))
	defer slog.SetDefault(prev)

	var failing atomic.Bool
	pc := PersistConfig{Dir: t.TempDir(), SnapshotEvery: 2, Hooks: Hooks{BeforeOp: func(op, name string) error {
		if failing.Load() && op == "create" && strings.HasPrefix(name, "snapshot-") {
			return errors.New("injected snapshot create failure")
		}
		return nil
	}}}
	srv, _, err := Open(spanCfg(t, 2), pc)
	if err != nil {
		t.Fatal(err)
	}
	defer shutdown(t, srv)
	count := func(msg string) (n int, last string) {
		for _, line := range strings.Split(logged.String(), "\n") {
			if strings.Contains(line, `msg="`+msg+`"`) {
				n, last = n+1, line
			}
		}
		return n, last
	}

	feedDays(t, srv, 0, 3)
	n, line := count("serve: snapshot cut")
	if n != 2 {
		t.Fatalf("%d snapshot-cut lines over two rounds, want 2:\n%s", n, logged.String())
	}
	for _, want := range []string{"day=3", "round_s=", "slowest_shard=", "encode_s=", "sync_s="} {
		if !strings.Contains(line, want) {
			t.Fatalf("snapshot-cut line lacks %q: %s", want, line)
		}
	}

	failing.Store(true)
	if err := feedUserDays(srv, 4, 5); !errors.Is(err, ErrPersistenceFailed) {
		t.Fatalf("a failed snapshot round returned %v, want the latch", err)
	}
	for d := cert.Day(6); d <= 7; d++ {
		if err := srv.CloseDay(context.Background(), d); !errors.Is(err, ErrPersistenceFailed) {
			t.Fatalf("close after the latch returned %v", err)
		}
	}
	if n, line := count("serve: persistence failed"); n != 1 || !strings.Contains(line, "injected snapshot create failure") {
		t.Fatalf("%d persistence-failed lines (want 1, with the error); last: %s", n, line)
	}
	if n, _ := count("serve: snapshot cut"); n != 2 {
		t.Fatalf("a failed round logged a snapshot cut")
	}

	cfg := spanCfg(t, 2)
	cfg.DetectorOptions = openDayDetOpts()
	mem, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer shutdown(t, mem)
	feedDays(t, mem, 0, 12)
	if err := mem.Retrain(context.Background(), 0, 10, true); err != nil {
		t.Fatal(err)
	}
	n, line = count("serve: retrain swapped")
	if n != 1 {
		t.Fatalf("%d retrain-swapped lines after one retrain, want 1:\n%s", n, logged.String())
	}
	for _, want := range []string{"from=0", "to=10", "closed_through=12", "fit_s="} {
		if !strings.Contains(line, want) {
			t.Fatalf("retrain-swapped line lacks %q: %s", want, line)
		}
	}
}
