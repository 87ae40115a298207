// Package daemon is the public face of the online ACOBE scoring daemon
// (internal/serve): continuous ingest over an in-process API, incremental
// day-close window advancement, background retraining, ranked
// investigation-list queries — and, when opened with a data directory,
// crash-safe, tamper-evident persistence: every acknowledged batch is
// written ahead to a CRC-framed, hash-chained WAL, the per-user
// measurements are snapshotted (and signed) at day-close barriers, and
// Start recovers by loading the newest valid snapshot, re-deriving the
// deviation windows from it, and replaying the WAL tail behind it — read
// in one walk per shard that checks the log and its whole hash chain
// before any of it is applied. Start reads only the one on-disk format the
// daemon writes: a file it cannot account for, or a segment, record,
// snapshot or manifest of a retired form, fails the start naming the file.
// Every daemon records per-stage latency histograms and counters — served
// at GET /metrics and in Status.Metrics — with no option to set
// (WithObserver only chooses the observer).
//
// It lives beside pkg/acobe (rather than inside it) because the serving
// layer builds on the detector API; a facade in pkg/acobe itself would be
// an import cycle.
//
// Quick start:
//
//	srv, info, err := daemon.Start(daemon.Config{Users: users, Start: day0},
//		daemon.WithDataDir("/var/lib/acobe"))
//	// info.ClosedThrough tells the client where to resume its stream;
//	// info.BufferedEvents says how many events of each open day survived
//	// (in the extractors' open-day state: no raw event is held).
//	err = srv.Submit(ctx, batch) // nil means: durable, survives a crash
//	err = srv.CloseDay(ctx, day)
//	list, err := srv.Rank(ctx, from, to)
package daemon

import (
	"crypto/ed25519"
	"net/http"

	"acobe/internal/audit"
	"acobe/internal/cert"
	"acobe/internal/logstore"
	"acobe/internal/serve"
)

// Day is a calendar day index (identical to acobe.Day).
type Day = cert.Day

// Event payload types, so callers can construct ingestable events without
// reaching into internal packages.
type (
	// CertEvent is a CERT-format audit event (Event.Cert).
	CertEvent = cert.Event
	// CertEventType enumerates the CERT log channels.
	CertEventType = cert.EventType
	// EnterpriseRecord is a normalized enterprise log record (Event.Record).
	EnterpriseRecord = logstore.Record
)

// CERT log channels for CertEvent.Type.
const (
	EventLogon  = cert.EventLogon
	EventDevice = cert.EventDevice
	EventFile   = cert.EventFile
	EventHTTP   = cert.EventHTTP
	EventEmail  = cert.EventEmail
)

// Core serving types, re-exported verbatim.
type (
	// Config shapes the daemon: users, groups, deviation windows, detector
	// options. Config.Shards partitions per-user state (extraction,
	// sliding windows, WAL streams) across consistent-hashed shards, each
	// on its own goroutine; every count, 1 (the default) included, runs
	// the same code and ranked output is byte-identical across them.
	// Config.IngestorFactory builds each shard's extractor over its own
	// user subset. All shards write their users' rows of each closed day
	// into one shared deviation field; queries and retrains read immutable
	// published headers over it with no lock, so ranking stays responsive
	// through closes and retrains and nothing is copied for either.
	Config = serve.Config
	// Server is the running daemon.
	Server = serve.Server
	// Event is one ingestable audit event (CERT or enterprise payload).
	Event = serve.Event
	// Status is a point-in-time snapshot of daemon state (schema_version
	// StatusSchemaVersion on the wire; additive fields never bump it).
	Status = serve.Status
	// ShardStatus is one shard's row in Status.ShardStatus.
	ShardStatus = serve.ShardStatus
	// PersistStatus is Status.Persistence, nil on an in-memory daemon.
	PersistStatus = serve.PersistStatus
	// HandlerOption composes Server.Handler's HTTP surface (see
	// WithPprofEndpoint; /metrics and /healthz are always mounted, and the
	// /v1/proof and /v1/receipt endpoints exactly when the daemon was
	// started WithDataDir).
	HandlerOption = serve.HandlerOption
	// Ingestor turns events into measurements: it vets each event's
	// payload type, folds each event into its day's open state as it is
	// applied, writes the day's row when the day closes, and serializes
	// its closed and open days for snapshots; the raw events are never
	// kept. Both built-in ingestors implement it.
	Ingestor = serve.Ingestor
)

// Persistence types.
type (
	// PersistConfig locates and tunes the durability layer (Start fills
	// it from WithDataDir and the tuning options).
	PersistConfig = serve.PersistConfig
	// RecoverInfo reports what recovery found and replayed.
	RecoverInfo = serve.RecoverInfo
	// FsyncPolicy says when the WAL is fsynced.
	FsyncPolicy = serve.FsyncPolicy
)

// Fsync policies, strictest last.
const (
	FsyncNever  = serve.FsyncNever
	FsyncClose  = serve.FsyncClose
	FsyncAlways = serve.FsyncAlways
)

// Audit types (every data directory carries the audit trail).
type (
	// ProofResult is one event inclusion proof: the WAL frame holding the
	// event, the batch Merkle root the hash chain committed at append
	// time, and the path from the event's leaf to that root.
	ProofResult = serve.ProofResult
	// Receipt is a signed rank receipt binding a ranked list's hash to the
	// audit chain head at emission.
	Receipt = audit.Receipt
	// VerifyReport summarizes one offline VerifyAudit walk.
	VerifyReport = serve.VerifyReport
)

// Sentinel errors, matched with errors.Is.
var (
	ErrNoModel           = serve.ErrNoModel
	ErrRetrainInProgress = serve.ErrRetrainInProgress
	ErrShuttingDown      = serve.ErrShuttingDown
	// ErrPayloadRejected is returned by Submit for an event whose payload
	// type the daemon's ingestor cannot consume; the HTTP API answers 400.
	ErrPayloadRejected = serve.ErrPayloadRejected
	// ErrPersistenceFailed wraps the first WAL/snapshot failure; once it is
	// returned the daemon fail-stops (refuses new work) rather than let
	// memory diverge from its log.
	ErrPersistenceFailed = serve.ErrPersistenceFailed
	// ErrAuditChainBroken reports verified tampering: sealed history no
	// longer matches the hash chain or a signature over it. Start fails
	// with it rather than serve state the log contradicts.
	ErrAuditChainBroken = serve.ErrAuditChainBroken
	// ErrAuditDisabled is returned by proof/receipt calls on a daemon
	// running without WithDataDir.
	ErrAuditDisabled = serve.ErrAuditDisabled
	// ErrUnknownBatch / ErrUnknownEvent reject proof requests for batches
	// or event indexes the retained log does not hold. The proof horizon
	// is the retained WAL segments, before and after a restart alike: a
	// batch any of whose parts sat in a pruned segment is unknown, never
	// answered from the parts that remain.
	ErrUnknownBatch = serve.ErrUnknownBatch
	ErrUnknownEvent = serve.ErrUnknownEvent
)

// StatusSchemaVersion is the schema_version value stamped into every
// status report the current daemon produces.
const StatusSchemaVersion = serve.StatusSchemaVersion

// WithPprofEndpoint is the HTTP surface option for Server.Handler,
// re-exported under an endpoint name so it reads apart from the
// constructor Options above.
func WithPprofEndpoint(enabled bool) HandlerOption { return serve.WithPprof(enabled) }

// VerifyAudit walks a data directory offline and verifies the
// full tamper-evidence chain — WAL frame CRCs, chain folds, recomputed
// batch Merkle roots, segment seals and cross-segment links, snapshot and
// manifest signatures and attested chain heads, receipt signatures and
// anchoring. It stops at the first divergence with a segment/offset
// diagnostic wrapping ErrAuditChainBroken. Run it against a cleanly
// shut-down directory; pub is the daemon's audit.pub key.
func VerifyAudit(dir string, pub ed25519.PublicKey) (*VerifyReport, error) {
	return serve.VerifyAudit(dir, pub)
}

// LoadAuditPublicKey reads an audit.pub file (hex-encoded ed25519 public
// key) for VerifyAudit.
func LoadAuditPublicKey(path string) (ed25519.PublicKey, error) {
	return audit.LoadPublicKey(path)
}

// AuditPubFileName is the name of the shareable public-key file a durable
// daemon writes next to its WAL (the default -pub for
// `acobed -verify`).
const AuditPubFileName = audit.PubFileName

// AuditKeyFingerprint renders a public key's pinned fingerprint, the same
// string a durable daemon reports at startup.
func AuditKeyFingerprint(pub ed25519.PublicKey) string { return audit.Fingerprint(pub) }

// PprofHandler returns a mux serving only /debug/pprof/*, for deployments
// that keep profiling on a separate non-public listener instead of
// mounting it in-mux with WithPprofEndpoint.
func PprofHandler() http.Handler { return serve.PprofHandler() }

// ParseFsyncPolicy parses "never", "close", or "always".
func ParseFsyncPolicy(s string) (FsyncPolicy, error) { return serve.ParseFsyncPolicy(s) }

// AppendEvent appends e's wire encoding to dst: the JSON object one line
// of a POST /v1/ingest body holds (the caller adds the newline), byte for
// byte what json.Marshal(e) returns. It is the encoder the daemon itself
// logs with, so a client that builds its bodies with it sends the shape
// the daemon decodes without reflection.
func AppendEvent(dst []byte, e Event) ([]byte, error) { return serve.AppendEvent(dst, e) }

// NewCERTIngestor builds the CERT-format ingestor explicitly, filling
// every feature the CERT extractor tracks (acobe.TrackedFeatures, 27).
// Without WithIngestorFactory the daemon builds a CERT ingestor that fills
// only the configured aspects' features (acobe.AspectsOf), the 16 of the
// paper's three aspects by default.
func NewCERTIngestor(users []string, start cert.Day) (Ingestor, error) {
	return serve.NewCERTIngestor(users, start)
}

// NewEnterpriseIngestor builds the enterprise JSONL-record ingestor.
func NewEnterpriseIngestor(users []string, start cert.Day) (Ingestor, error) {
	return serve.NewEnterpriseIngestor(users, start)
}
