package serve

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"acobe/internal/cert"
	"acobe/pkg/acobe"
)

func newHTTPServer(t *testing.T) (*Server, *httptest.Server) {
	t.Helper()
	srv, err := New(Config{
		Users:     []string{"alice", "bob"},
		Start:     0,
		Deviation: testDevCfg(),
		DetectorOptions: []acobe.Option{
			acobe.WithAspects(acobe.Aspect{Name: "logons", Features: []string{"coarse:logon"}}),
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv.Handler())
	t.Cleanup(func() {
		ts.Close()
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		_ = srv.Shutdown(ctx)
	})
	return srv, ts
}

// newlines is an endless body of empty NDJSON lines.
type newlines struct{}

func (newlines) Read(p []byte) (int, error) {
	for i := range p {
		p[i] = '\n'
	}
	return len(p), nil
}

func TestHTTPAPI(t *testing.T) {
	srv, ts := newHTTPServer(t)
	client := ts.Client()

	get := func(path string) (*http.Response, string) {
		t.Helper()
		resp, err := client.Get(ts.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		b, err := io.ReadAll(resp.Body)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		return resp, string(b)
	}
	post := func(path, body string) (*http.Response, string) {
		t.Helper()
		resp, err := client.Post(ts.URL+path, "application/x-ndjson", strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		b, err := io.ReadAll(resp.Body)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		return resp, string(b)
	}

	if resp, body := get("/healthz"); resp.StatusCode != http.StatusOK || !strings.Contains(body, "ok") {
		t.Fatalf("healthz: %d %q", resp.StatusCode, body)
	}

	// Malformed and ambiguous events are rejected up front.
	if resp, _ := post("/v1/ingest", "{not json"); resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("bad json accepted: %d", resp.StatusCode)
	}
	if resp, _ := post("/v1/ingest", "{}"); resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("empty event accepted: %d", resp.StatusCode)
	}

	// Client mistakes are 4xx, never 500, and leave nothing behind: a
	// body one byte past the cap (newlines are enough — empty lines are
	// skipped, so the cap is what refuses it), a batch Submit finds too
	// large for one WAL frame, and a payload type this daemon's CERT
	// ingestor cannot consume.
	resp, err := client.Post(ts.URL+"/v1/ingest", "application/x-ndjson",
		io.LimitReader(newlines{}, maxWALRecord+1))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusRequestEntityTooLarge {
		t.Fatalf("body past the cap: %d, want 413", resp.StatusCode)
	}
	rec := httptest.NewRecorder()
	httpError(rec, fmt.Errorf("%w (%d bytes, cap %d)", ErrBatchTooLarge, maxWALRecord+1, maxWALRecord))
	if rec.Code != http.StatusRequestEntityTooLarge {
		t.Fatalf("ErrBatchTooLarge: %d, want 413", rec.Code)
	}
	record, err := json.Marshal(recordEvent(0))
	if err != nil {
		t.Fatal(err)
	}
	if resp, body := post("/v1/ingest", string(record)+"\n"); resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("record payload on a CERT daemon: %d %q, want 400", resp.StatusCode, body)
	}
	if got := srv.shards[0].ingested.Load() + srv.shards[0].late.Load(); got != 0 || len(srv.shards[0].buffered) != 0 {
		t.Fatalf("rejected requests left %d counted events and %d buffered days", got, len(srv.shards[0].buffered))
	}

	// A valid CERT logon for day 0, then close the day.
	ev := Event{Cert: &cert.Event{Type: cert.EventLogon, Activity: cert.ActLogon,
		Time: cert.Day(0).Date().Add(9 * time.Hour), User: "alice", PC: "PC-1"}}
	line, err := json.Marshal(ev)
	if err != nil {
		t.Fatal(err)
	}
	if resp, body := post("/v1/ingest", string(line)+"\n"); resp.StatusCode != http.StatusOK {
		t.Fatalf("ingest: %d %q", resp.StatusCode, body)
	}
	if resp, body := post("/v1/close?day=0", ""); resp.StatusCode != http.StatusOK {
		t.Fatalf("close: %d %q", resp.StatusCode, body)
	} else if !strings.Contains(body, `"closed_through":0`) {
		t.Fatalf("close body: %q", body)
	}
	if got := srv.shards[0].ingested.Load(); got != 1 {
		t.Fatalf("ingested = %d, want 1", got)
	}

	// Dates parse in both formats.
	if resp, _ := post("/v1/close?day="+cert.Day(1).String(), ""); resp.StatusCode != http.StatusOK {
		t.Fatalf("date-format close failed: %d", resp.StatusCode)
	}
	if resp, _ := post("/v1/close?day=bogus", ""); resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("bogus day accepted: %d", resp.StatusCode)
	}

	// No model yet: rank is 503, status says unfitted.
	if resp, _ := get("/v1/rank?from=0&to=1"); resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("rank without model: %d", resp.StatusCode)
	}
	var st Status
	resp, body := get("/v1/status")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status: %d", resp.StatusCode)
	}
	if err := json.Unmarshal([]byte(body), &st); err != nil {
		t.Fatalf("status body %q: %v", body, err)
	}
	if st.Fitted || st.Users != 2 || st.ClosedThrough != 1 {
		t.Fatalf("status = %+v", st)
	}

	// A concurrent retrain maps to 409.
	srv.retraining.Store(true)
	if resp, _ := post("/v1/retrain?from=0&to=1&wait=1", ""); resp.StatusCode != http.StatusConflict {
		t.Fatalf("conflicting retrain: %d", resp.StatusCode)
	}
	srv.retraining.Store(false)

	// Missing parameters are 400s.
	if resp, _ := get("/v1/rank?from=0"); resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("rank without to: %d", resp.StatusCode)
	}
	if resp, _ := post("/v1/retrain", ""); resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("retrain without range: %d", resp.StatusCode)
	}

	// With a model: a window holding a scoreable day is served with the
	// model's aspect names; one that holds none is the client's mistake
	// (400), not a server failure. Days 9..30 are scoreable here.
	if resp, body := post("/v1/close?day=30", ""); resp.StatusCode != http.StatusOK {
		t.Fatalf("close: %d %q", resp.StatusCode, body)
	}
	if resp, body := post("/v1/retrain?from=0&to=25&wait=1", ""); resp.StatusCode != http.StatusOK {
		t.Fatalf("retrain: %d %q", resp.StatusCode, body)
	}
	resp, body = get("/v1/rank?from=0&to=99&top=1")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("rank: %d %q", resp.StatusCode, body)
	}
	var ranked rankResponse
	if err := json.Unmarshal([]byte(body), &ranked); err != nil {
		t.Fatalf("rank body %q: %v", body, err)
	}
	if len(ranked.List) != 1 || len(ranked.Aspects) != 1 || ranked.Aspects[0] != "logons" {
		t.Fatalf("rank response = %+v", ranked)
	}
	for name, window := range map[string]string{
		"from after to":                  "from=20&to=12",
		"wholly before the first matrix": "from=0&to=8",
		"wholly after closed_through":    "from=31&to=40",
	} {
		if resp, body := get("/v1/rank?" + window); resp.StatusCode != http.StatusBadRequest {
			t.Errorf("rank window %s: %d %q, want 400", name, resp.StatusCode, body)
		}
	}
}
