package serve

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"

	"acobe/internal/cert"
	"acobe/internal/logstore"
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
	open := srv.shards[0].ing.(StatefulIngestor).OpenDays()
	if got := srv.shards[0].ingested.Load() + srv.shards[0].late.Load(); got != 0 || len(open) != 0 {
		t.Fatalf("rejected requests left %d counted events and %d open days", got, len(open))
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

// parentIngest is POST /v1/ingest's answer as the handler computed it
// before the wire codec: a bufio.Scanner with a 64 KiB buffer growing to
// 4 MiB over the capped body, json.Unmarshal per non-blank line, Valid per
// line, then Submit's checkEvent over the batch. It is kept, verbatim, as
// the reference TestIngestConformance holds the handler to; it submits
// nothing.
func parentIngest(s *Server) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		var events []Event
		sc := bufio.NewScanner(http.MaxBytesReader(w, r.Body, maxWALRecord))
		sc.Buffer(make([]byte, 0, 64*1024), 4*1024*1024)
		line := 0
		for sc.Scan() {
			line++
			raw := sc.Bytes()
			if len(raw) == 0 {
				continue
			}
			var e Event
			if err := json.Unmarshal(raw, &e); err != nil {
				http.Error(w, fmt.Sprintf("line %d: %v", line, err), http.StatusBadRequest)
				return
			}
			if !e.Valid() {
				http.Error(w, fmt.Sprintf("line %d: event must carry exactly one of cert/record", line), http.StatusBadRequest)
				return
			}
			events = append(events, e)
		}
		if err := sc.Err(); err != nil {
			code := http.StatusBadRequest
			if errors.As(err, new(*http.MaxBytesError)) {
				code = http.StatusRequestEntityTooLarge
			}
			http.Error(w, err.Error(), code)
			return
		}
		for _, e := range events {
			if err := s.checkEvent(e); err != nil {
				httpError(w, err)
				return
			}
		}
		writeJSON(w, map[string]any{"accepted": len(events)})
	}
}

// TestIngestConformance posts bodies at the handler and at parentIngest and
// requires the same status code and the same body text: every line the
// codec's fast path refuses and every odd one it takes, alone and behind a
// good line; blank lines, CRLF, a final line without its newline; a
// payload this daemon's ingestor rejects, alone and ahead of a malformed
// line; lines at and one past the 4 MiB line limit; bodies past the body
// cap, cut on a line boundary and inside a line.
func TestIngestConformance(t *testing.T) {
	srv, _ := newHTTPServer(t)
	h, ref := srv.Handler(), parentIngest(srv)

	good := `{"cert":{"Type":1,"Time":"2010-01-02T09:00:00Z","User":"alice","PC":"PC-1","Activity":"Logon","FileID":"","Direction":"","Domain":"","FileType":"","Recipient":""}}`
	record := `{"record":{"Time":"2010-01-02T09:00:00Z","User":"alice","Host":"h","Channel":"c","EventID":1,"Action":"Logon","Object":"","Status":""}}`
	// longLine is a valid event exactly n bytes long.
	longLine := func(n int) string {
		const head, tail = `{"cert":{"Time":"2010-01-02T09:00:00Z","User":"alice","Recipient":"`, `"}}`
		return head + strings.Repeat("r", n-len(head)-len(tail)) + tail
	}
	check := func(name string, data []byte) {
		answer := func(h http.Handler) (int, string) {
			rec := httptest.NewRecorder()
			h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/v1/ingest", bytes.NewReader(data)))
			return rec.Code, rec.Body.String()
		}
		wantCode, wantText := answer(ref)
		gotCode, gotText := answer(h)
		if gotCode != wantCode || gotText != wantText {
			t.Errorf("%s: %d %q, the parent answers %d %q", name, gotCode, gotText, wantCode, wantText)
		}
	}
	add := func(name, body string) { check(name, []byte(body)) }
	for i, in := range append(append([]string{}, codecRefusals...), codecTaken...) {
		if strings.ContainsAny(in, "\n") {
			continue // not a line; the pretty-printed case below covers it
		}
		add(fmt.Sprintf("line %d alone", i), in+"\n")
		add(fmt.Sprintf("line %d second", i), good+"\n"+in+"\n")
	}
	add("empty body", "")
	add("blank lines only", "\n\n\r\n\n")
	add("blank lines between", "\n\n"+good+"\n\n\n{bad\n")
	add("no final newline", good+"\n"+good)
	add("no final newline, malformed", good+"\n"+good[:40])
	add("crlf", good+"\r\n"+good+"\r\n")
	add("crlf, no final newline", good+"\r\n"+good+"\r")
	add("bare cr inside", good+"\r"+good+"\n")
	add("pretty-printed", "{\n  \"cert\": {\n    \"Type\": 1\n  }\n}\n")
	add("leading space", " "+good+"\n")
	add("wrong payload", record+"\n")
	add("wrong payload then good", record+"\n"+good+"\n")
	add("wrong payload then malformed", record+"\n"+good+"\n{bad\n")
	add("wrong payload then no payload", record+"\n{}\n")
	add("line of 4 MiB less one", good+"\n"+longLine(4<<20-1)+"\n")
	add("line of 4 MiB less one, crlf", longLine(4<<20-2)+"\r\n")
	add("line of 4 MiB less one, unterminated", longLine(4<<20-1))
	add("line of 4 MiB", good+"\n"+longLine(4<<20)+"\n")
	add("line of 4 MiB, unterminated", longLine(4<<20))
	add("line of 4 MiB, crlf", longLine(4<<20-1)+"\r\n")
	add("line of 4 MiB behind a malformed one", "{bad\n"+longLine(4<<20)+"\n")
	add("malformed behind a line of 4 MiB", longLine(4<<20)+"\n{bad\n")

	// Around the body cap: 64 lines of 1 MiB, newline included, are the
	// cap exactly. One buffer, re-cut per case.
	mib := longLine(1<<20-1) + "\n"
	full := make([]byte, 0, maxWALRecord+len(mib))
	for len(full) < maxWALRecord {
		full = append(full, mib...)
	}
	check("at the cap exactly", full)
	check("past the cap, cut on a line boundary", append(full, '\n'))
	check("past the cap, cut inside a line", append(full, mib[:100]...))
	copy(full[maxWALRecord-len(mib):], "{bad\n")
	check("past the cap, behind a malformed line", append(full, mib[:100]...))
}

// TestIngestDoesNotPinBodies is the regression test for retained
// substrings. The decoder cuts an event's strings out of one allocation,
// so whatever keeps one field of an event keeps all of them; the
// extractors keep first-seen keys for good. Every event here carries a
// never-seen key (a CERT host, an enterprise file object: kept) beside a
// kilobyte of something else (not kept): after the day is closed and the
// heap collected, what the ingest left behind must be a small fraction of
// what was sent.
func TestIngestDoesNotPinBodies(t *testing.T) {
	filler := strings.Repeat("r", 1024)
	at := cert.Day(0).Date().Add(9 * time.Hour)
	for name, tc := range map[string]struct {
		factory func(users []string, start cert.Day) (Ingestor, error)
		event   func(key string) Event
	}{
		"cert": {nil, func(key string) Event {
			return Event{Cert: &cert.Event{Type: cert.EventDevice, Activity: cert.ActConnect,
				Time: at, User: "alice", PC: key, Recipient: filler}}
		}},
		"enterprise": {func(users []string, start cert.Day) (Ingestor, error) {
			return NewEnterpriseIngestor(users, start)
		}, func(key string) Event {
			return Event{Record: &logstore.Record{Action: "FileWrite",
				Time: at, User: "alice", Object: key, Status: filler}}
		}},
	} {
		t.Run(name, func(t *testing.T) {
			srv, err := New(Config{Users: []string{"alice", "bob"}, Deviation: testDevCfg(), IngestorFactory: tc.factory})
			if err != nil {
				t.Fatal(err)
			}
			defer srv.Shutdown(context.Background())
			h := srv.Handler()
			heap := func() uint64 {
				runtime.GC()
				runtime.GC()
				var ms runtime.MemStats
				runtime.ReadMemStats(&ms)
				return ms.HeapAlloc
			}
			before := heap()
			const bodies, perBody = 16, 250
			sent := 0
			for b := 0; b < bodies; b++ {
				var body []byte
				for i := 0; i < perBody; i++ {
					e := tc.event(fmt.Sprintf("key-%d-%d", b, i))
					if body, err = AppendEvent(body, e); err != nil {
						t.Fatal(err)
					}
					body = append(body, '\n')
				}
				sent += len(body)
				rec := httptest.NewRecorder()
				h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/v1/ingest", bytes.NewReader(body)))
				if rec.Code != http.StatusOK {
					t.Fatalf("ingest: %d %s", rec.Code, rec.Body)
				}
			}
			if err := srv.CloseDay(context.Background(), 0); err != nil {
				t.Fatal(err)
			}
			if st := srv.Status(); st.Ingested != bodies*perBody {
				t.Fatalf("ingested %d events, want %d", st.Ingested, bodies*perBody)
			}
			if grown := int64(heap()) - int64(before); grown > int64(sent)/8 {
				t.Fatalf("heap grew %d bytes over an ingest of %d bytes and a close: something still holds the events' strings", grown, sent)
			}
			runtime.KeepAlive(srv)
		})
	}
}

// recordingIngestor counts the host names of the events applied.
type recordingIngestor struct {
	Ingestor
	pcs map[string]int
}

func (r *recordingIngestor) Apply(events []Event) (int, error) {
	for _, e := range events {
		r.pcs[e.Cert.PC]++
	}
	return r.Ingestor.Apply(events)
}

// TestIngestConcurrentBodies posts from several goroutines at once — the
// handlers share the pool of body buffers — and requires every event of
// every body, and nothing else, to arrive: each event carries a host name
// of its own. Run it under -race.
func TestIngestConcurrentBodies(t *testing.T) {
	srv, _ := newHTTPServer(t)
	h := srv.Handler()
	// No request is in flight yet: the shard sees the swap through its queue.
	applied := &recordingIngestor{Ingestor: srv.shards[0].ing, pcs: map[string]int{}}
	srv.shards[0].ing = applied
	const senders, bodies, perBody = 8, 12, 40
	var wg sync.WaitGroup
	for g := 0; g < senders; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for b := 0; b < bodies; b++ {
				var body []byte
				for i := 0; i < perBody; i++ {
					e := testEvent([]string{"alice", "bob"}[i%2], 0)
					e.Cert.PC = fmt.Sprintf("g%d-b%d-i%d", g, b, i)
					body, _ = AppendEvent(body, e)
					body = append(body, '\n')
				}
				rec := httptest.NewRecorder()
				h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/v1/ingest", bytes.NewReader(body)))
				if want := fmt.Sprintf("{\"accepted\":%d}\n", perBody); rec.Code != http.StatusOK || rec.Body.String() != want {
					t.Errorf("sender %d body %d: %d %q", g, b, rec.Code, rec.Body)
				}
			}
		}(g)
	}
	wg.Wait()
	// In memory an ack only says the batch is queued; Shutdown returns
	// once the shard has drained its queue and exited.
	if err := srv.Shutdown(context.Background()); err != nil {
		t.Fatal(err)
	}
	got := applied.pcs
	for g := 0; g < senders; g++ {
		for b := 0; b < bodies; b++ {
			for i := 0; i < perBody; i++ {
				if pc := fmt.Sprintf("g%d-b%d-i%d", g, b, i); got[pc] != 1 {
					t.Fatalf("event %s arrived %d times", pc, got[pc])
				}
			}
		}
	}
	if len(got) != senders*bodies*perBody {
		t.Fatalf("%d distinct events arrived, %d were sent", len(got), senders*bodies*perBody)
	}
}
