package serve

import (
	"context"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"net/http/pprof"
	"strconv"
	"time"

	"acobe/internal/cert"
	"acobe/internal/obs"
	"acobe/pkg/acobe"
)

// handlerConfig is what the HandlerOptions assemble.
type handlerConfig struct {
	pprof bool
}

// HandlerOption composes the daemon's HTTP surface beyond what the server
// itself decides: the /v1 API, GET /metrics and /healthz are always
// mounted, and the tamper-evidence endpoints exactly on a server with a
// data directory.
type HandlerOption func(*handlerConfig)

// WithPprof mounts net/http/pprof under /debug/pprof/ on the same mux,
// replacing the separate pprof listener deployments used to wire by hand.
// Off by default: profiling endpoints on a public listener are a
// deliberate choice.
func WithPprof(enabled bool) HandlerOption {
	return func(c *handlerConfig) { c.pprof = enabled }
}

// Handler returns the daemon's HTTP API:
//
//	POST /v1/ingest          body: one JSON Event per line (JSONL)
//	POST /v1/close?day=D     close every day through D
//	GET  /v1/rank?from=&to=&top=N
//	POST /v1/retrain?from=&to=&wait=1
//	GET  /v1/status          versioned status report (schema_version 1)
//	GET  /v1/proof           batch inclusion proofs   (with a data directory)
//	POST /v1/receipt         signed rank receipts     (with a data directory)
//	GET  /metrics            Prometheus text exposition
//	GET  /healthz
//	/debug/pprof/*           with WithPprof(true)
//
// Days parse as YYYY-MM-DD or as a plain integer day number.
func (s *Server) Handler(opts ...HandlerOption) http.Handler {
	var cfg handlerConfig
	for _, opt := range opts {
		opt(&cfg)
	}
	mux := http.NewServeMux()
	mux.HandleFunc("POST /v1/ingest", s.handleIngest)
	mux.HandleFunc("POST /v1/close", s.handleClose)
	mux.HandleFunc("GET /v1/rank", s.handleRank)
	mux.HandleFunc("POST /v1/retrain", s.handleRetrain)
	mux.HandleFunc("GET /v1/status", s.handleStatus)
	if s.persistent() {
		mux.HandleFunc("GET /v1/proof", s.handleProof)
		mux.HandleFunc("POST /v1/receipt", s.handleReceipt)
	}
	mux.HandleFunc("GET /metrics", s.handleMetrics)
	mux.HandleFunc("GET /healthz", func(w http.ResponseWriter, r *http.Request) {
		w.WriteHeader(http.StatusOK)
		fmt.Fprintln(w, "ok")
	})
	if cfg.pprof {
		mountPprof(mux)
	}
	return mux
}

// mountPprof registers the net/http/pprof handlers on mux.
func mountPprof(mux *http.ServeMux) {
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
}

// PprofHandler returns a mux serving only /debug/pprof/* — the handler a
// deployment puts on a separate, non-public listener when it wants
// profiling off the API surface (the in-mux alternative is
// Handler(WithPprof(true))).
func PprofHandler() http.Handler {
	mux := http.NewServeMux()
	mountPprof(mux)
	return mux
}

// handleMetrics renders one Prometheus scrape: the observer snapshot plus
// the live gauges only the server knows.
func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	st := s.Status()
	g := obs.Gauges{
		Users:          st.Users,
		Shards:         st.Shards,
		ClosedThrough:  int64(st.ClosedThrough),
		Fitted:         st.Fitted,
		Retraining:     st.Retraining,
		PersistEnabled: st.Persistence != nil,
	}
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	_ = obs.WritePrometheus(w, st.Metrics, g)
}

// parseDay accepts 2010-06-01 or a raw integer day index.
func parseDay(s string) (cert.Day, error) {
	if s == "" {
		return 0, errors.New("missing day")
	}
	if n, err := strconv.Atoi(s); err == nil {
		return cert.Day(n), nil
	}
	return cert.ParseDay(s)
}

func httpError(w http.ResponseWriter, err error) {
	code := http.StatusInternalServerError
	switch {
	case errors.Is(err, ErrNoModel):
		code = http.StatusServiceUnavailable
	case errors.Is(err, ErrRetrainInProgress):
		code = http.StatusConflict
	case errors.Is(err, ErrUnknownBatch), errors.Is(err, ErrUnknownEvent):
		code = http.StatusNotFound
	case errors.Is(err, acobe.ErrEmptyRange), errors.Is(err, ErrPayloadRejected):
		code = http.StatusBadRequest
	case errors.Is(err, ErrBatchTooLarge):
		code = http.StatusRequestEntityTooLarge
	case errors.Is(err, ErrShuttingDown):
		code = http.StatusServiceUnavailable
	case errors.Is(err, context.Canceled), errors.Is(err, context.DeadlineExceeded),
		errors.Is(err, acobe.ErrCanceled):
		code = http.StatusServiceUnavailable
	}
	http.Error(w, err.Error(), code)
}

func writeJSON(w http.ResponseWriter, v any) {
	w.Header().Set("Content-Type", "application/json")
	enc := json.NewEncoder(w)
	enc.SetEscapeHTML(false)
	_ = enc.Encode(v)
}

// handleIngest decodes the body and submits its events in one batch. A
// full queue blocks the request (backpressure); a canceled request or
// shutdown yields 503. The body is capped at the WAL frame cap (413 past
// it), so a daemon without a WAL has a size limit too.
func (s *Server) handleIngest(w http.ResponseWriter, r *http.Request) {
	start := time.Now()
	// The first event this daemon's ingestor cannot consume. It is
	// answered only once the whole body has decoded: a malformed line
	// anywhere outranks it.
	var rejected error
	events, fallback, err := DecodeIngest(http.MaxBytesReader(w, r.Body, maxWALRecord), func(e *Event) {
		if rejected == nil {
			rejected = s.checker.CheckEvent(*e)
		}
	})
	s.obs.ObserveDecode(start, fallback)
	if err != nil {
		code := http.StatusBadRequest
		if errors.As(err, new(*http.MaxBytesError)) {
			code = http.StatusRequestEntityTooLarge
		}
		http.Error(w, err.Error(), code)
		return
	}
	if rejected != nil {
		httpError(w, rejected)
		return
	}
	id, err := s.dispatch(r.Context(), events)
	if err != nil {
		httpError(w, err)
		return
	}
	ack := map[string]any{"accepted": len(events)}
	if s.persistent() {
		ack["batch_id"] = id
	}
	writeJSON(w, ack)
}

func (s *Server) handleClose(w http.ResponseWriter, r *http.Request) {
	d, err := parseDay(r.URL.Query().Get("day"))
	if err != nil {
		http.Error(w, err.Error(), http.StatusBadRequest)
		return
	}
	if err := s.CloseDay(r.Context(), d); err != nil {
		httpError(w, err)
		return
	}
	writeJSON(w, map[string]any{"closed_through": s.ClosedThrough()})
}

// rankResponse is the ranked-list wire format.
type rankResponse struct {
	From    cert.Day       `json:"from"`
	To      cert.Day       `json:"to"`
	Aspects []string       `json:"aspects"`
	List    []acobe.Ranked `json:"list"`
}

func (s *Server) handleRank(w http.ResponseWriter, r *http.Request) {
	q := r.URL.Query()
	from, err := parseDay(q.Get("from"))
	if err != nil {
		http.Error(w, "from: "+err.Error(), http.StatusBadRequest)
		return
	}
	to, err := parseDay(q.Get("to"))
	if err != nil {
		http.Error(w, "to: "+err.Error(), http.StatusBadRequest)
		return
	}
	list, p, err := s.rank(r.Context(), from, to)
	if err != nil {
		httpError(w, err)
		return
	}
	if topStr := q.Get("top"); topStr != "" {
		top, err := strconv.Atoi(topStr)
		if err != nil || top < 0 {
			http.Error(w, "top: must be a non-negative integer", http.StatusBadRequest)
			return
		}
		if top < len(list) {
			list = list[:top]
		}
	}
	writeJSON(w, rankResponse{From: from, To: to, Aspects: p.det.AspectNames(), List: list})
}

func (s *Server) handleRetrain(w http.ResponseWriter, r *http.Request) {
	q := r.URL.Query()
	from, err := parseDay(q.Get("from"))
	if err != nil {
		http.Error(w, "from: "+err.Error(), http.StatusBadRequest)
		return
	}
	to, err := parseDay(q.Get("to"))
	if err != nil {
		http.Error(w, "to: "+err.Error(), http.StatusBadRequest)
		return
	}
	wait := q.Get("wait") == "1" || q.Get("wait") == "true"
	if err := s.Retrain(r.Context(), from, to, wait); err != nil {
		httpError(w, err)
		return
	}
	writeJSON(w, map[string]any{"training": !wait, "fitted": s.Detector() != nil})
}

func (s *Server) handleStatus(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, s.Status())
}

// proofStepJSON is one inclusion-proof path element on the wire.
type proofStepJSON struct {
	// Side is "left" when the sibling hash sits left of the running hash.
	Side string `json:"side"`
	Hash string `json:"hash"`
}

// proofResponse is the GET /v1/proof wire format. Root, Leaf, and Path
// hashes are lowercase hex; Encoded is the proof's binary codec form
// (hex), which audit.DecodeProof accepts for offline verification.
type proofResponse struct {
	BatchID     uint64          `json:"batch_id"`
	Event       int             `json:"event"`
	Events      int             `json:"events"`
	Shard       int             `json:"shard"`
	Segment     uint64          `json:"segment"`
	Offset      int64           `json:"offset"`
	Root        string          `json:"root"`
	Leaf        string          `json:"leaf"`
	Path        []proofStepJSON `json:"path"`
	Encoded     string          `json:"encoded"`
	Fingerprint string          `json:"fingerprint"`
}

// handleProof serves an inclusion proof for one ingested event:
// /v1/proof?batch=<id>&event=<i> (event defaults to 0).
func (s *Server) handleProof(w http.ResponseWriter, r *http.Request) {
	q := r.URL.Query()
	batch, err := strconv.ParseUint(q.Get("batch"), 10, 64)
	if err != nil {
		http.Error(w, "batch: must be a batch ID", http.StatusBadRequest)
		return
	}
	event := 0
	if es := q.Get("event"); es != "" {
		event, err = strconv.Atoi(es)
		if err != nil || event < 0 {
			http.Error(w, "event: must be a non-negative event index", http.StatusBadRequest)
			return
		}
	}
	res, err := s.Proof(batch, event)
	if err != nil {
		httpError(w, err)
		return
	}
	n, err := s.BatchEvents(batch)
	if err != nil {
		httpError(w, err)
		return
	}
	resp := proofResponse{
		BatchID: res.BatchID, Event: res.Event, Events: n,
		Shard: res.Shard, Segment: res.Seg, Offset: res.Off,
		Root:        hex.EncodeToString(res.Root[:]),
		Leaf:        hex.EncodeToString(res.Proof.Leaf[:]),
		Encoded:     hex.EncodeToString(res.Proof.Encode()),
		Fingerprint: s.AuditFingerprint(),
	}
	for _, st := range res.Proof.Path {
		side := "right"
		if st.Left {
			side = "left"
		}
		resp.Path = append(resp.Path, proofStepJSON{Side: side, Hash: hex.EncodeToString(st.Hash[:])})
	}
	writeJSON(w, resp)
}

// receiptResponse is the POST /v1/receipt wire format: the ranked list
// plus the signed receipt binding its hash to the audit chain.
type receiptResponse struct {
	rankResponse
	Receipt receiptJSON `json:"receipt"`
}

type receiptJSON struct {
	From        cert.Day `json:"from"`
	To          cert.Day `json:"to"`
	ListHash    string   `json:"list_hash"`
	Head        string   `json:"head"`
	Sig         string   `json:"sig"`
	Encoded     string   `json:"encoded"`
	Fingerprint string   `json:"fingerprint"`
}

// handleReceipt ranks [from, to] and logs a signed rank receipt into the
// audit stream: /v1/receipt?from=&to=. The response carries the full
// ranked list the receipt's list_hash covers (no top truncation — the
// hash binds the whole list).
func (s *Server) handleReceipt(w http.ResponseWriter, r *http.Request) {
	q := r.URL.Query()
	from, err := parseDay(q.Get("from"))
	if err != nil {
		http.Error(w, "from: "+err.Error(), http.StatusBadRequest)
		return
	}
	to, err := parseDay(q.Get("to"))
	if err != nil {
		http.Error(w, "to: "+err.Error(), http.StatusBadRequest)
		return
	}
	list, p, rc, err := s.rankReceipt(r.Context(), from, to)
	if err != nil {
		httpError(w, err)
		return
	}
	writeJSON(w, receiptResponse{
		rankResponse: rankResponse{From: from, To: to, Aspects: p.det.AspectNames(), List: list},
		Receipt: receiptJSON{
			From: cert.Day(rc.From), To: cert.Day(rc.To),
			ListHash:    hex.EncodeToString(rc.ListHash[:]),
			Head:        hex.EncodeToString(rc.Head[:]),
			Sig:         hex.EncodeToString(rc.Sig[:]),
			Encoded:     hex.EncodeToString(rc.Encode()),
			Fingerprint: s.AuditFingerprint(),
		},
	})
}
