package daemon

import (
	"errors"

	"acobe/internal/obs"
	"acobe/internal/serve"
)

// Observability types, re-exported so operators never import internal
// packages.
type (
	// Observer is the daemon's per-stage instrumentation root: attach one
	// with WithObserver (or Config.Observer) and the server records
	// latency histograms and counters allocation-free on the hot path,
	// served at GET /metrics and inside the status report.
	Observer = obs.Observer
	// Metrics is one point-in-time scrape of an Observer, as embedded in
	// Status.Metrics and returned by Server.MetricsSnapshot.
	Metrics = obs.Snapshot
)

// NewObserver returns an empty observer ready to hand to WithObserver.
func NewObserver() *Observer { return obs.NewObserver() }

// settings is what the Options assemble: the serving config plus an
// optional persistence block.
type settings struct {
	cfg     Config
	persist PersistConfig

	durable    bool
	persistOpt string // first persistence tuning option seen, for error text
}

// Option customizes a daemon started with Start. Options override the
// corresponding Config fields, so a caller can mix a struct-literal base
// config with option-driven overrides during migration.
type Option func(*settings)

// WithShards partitions per-user state across n consistent-hashed shards,
// each ingesting, extracting, and logging on its own goroutine. Ranked
// output is byte-identical at every shard count (default 1); a data
// directory is tied to the count it was written with.
func WithShards(n int) Option {
	return func(s *settings) { s.cfg.Shards = n }
}

// WithQueueSize bounds each ingest queue to n batches (backpressure).
func WithQueueSize(n int) Option {
	return func(s *settings) { s.cfg.QueueSize = n }
}

// WithObserver attaches per-stage instrumentation. One observer serves
// one daemon.
func WithObserver(o *Observer) Option {
	return func(s *settings) { s.cfg.Observer = o }
}

// WithIngestorFactory supplies the per-shard measurement extractor. The
// factory is called once per shard with that shard's user subset; at one
// shard it receives every user.
func WithIngestorFactory(f func(users []string, start Day) (Ingestor, error)) Option {
	return func(s *settings) { s.cfg.IngestorFactory = f }
}

// WithDataDir turns on crash-safe persistence rooted at dir: acknowledged
// batches write ahead to a CRC-framed WAL and window state snapshots at
// day-close barriers. Start then recovers whatever an earlier process
// left there and returns a non-nil RecoverInfo.
func WithDataDir(dir string) Option {
	return func(s *settings) {
		s.persist.Dir = dir
		s.durable = true
	}
}

// WithFsync says when the WAL is fsynced (default FsyncClose). Requires
// WithDataDir.
func WithFsync(p FsyncPolicy) Option {
	return func(s *settings) {
		s.persist.Fsync = p
		s.notePersist("WithFsync")
	}
}

// WithSnapshotEvery snapshots window state every n closed days (default
// 30). Requires WithDataDir.
func WithSnapshotEvery(days int) Option {
	return func(s *settings) {
		s.persist.SnapshotEvery = days
		s.notePersist("WithSnapshotEvery")
	}
}

// WithSegmentBytes rotates WAL segments at n bytes (default 8 MiB).
// Requires WithDataDir.
func WithSegmentBytes(n int64) Option {
	return func(s *settings) {
		s.persist.SegmentBytes = n
		s.notePersist("WithSegmentBytes")
	}
}

// WithAudit turns on the tamper-evident audit trail: a SHA-256 hash chain
// over every WAL frame (sealed into segments, chained into snapshots and
// manifests, ed25519-signed), per-batch Merkle roots for inclusion
// proofs (Server.Proof, GET /v1/proof), and signed rank receipts
// (Server.RankReceipt, POST /v1/receipt — Server.Handler mounts the two
// endpoints exactly on a daemon started with this option). Verify
// offline with daemon.VerifyAudit or `acobed -verify`. A directory must
// always be opened with the audit setting it was written under; every
// artifact's header carries the mode and a mismatch is refused by name.
// Requires WithDataDir.
func WithAudit() Option {
	return func(s *settings) {
		s.persist.Audit = true
		s.notePersist("WithAudit")
	}
}

func (s *settings) notePersist(name string) {
	if s.persistOpt == "" {
		s.persistOpt = name
	}
}

// Start builds and starts a daemon from a base config plus options —
// the one constructor, covering both the in-memory and the durable
// server. Without WithDataDir nothing survives a restart and the returned
// RecoverInfo is nil; with it the daemon recovers whatever an earlier
// process left in the directory (possibly nothing), and a nil error
// guarantees its state equals the pre-crash state for every acknowledged
// Submit and CloseDay. A persistence tuning option without WithDataDir is
// a configuration error, reported rather than silently ignored.
func Start(cfg Config, opts ...Option) (*Server, *RecoverInfo, error) {
	s := settings{cfg: cfg}
	for _, opt := range opts {
		opt(&s)
	}
	if !s.durable {
		if s.persistOpt != "" {
			return nil, nil, errors.New("daemon: " + s.persistOpt + " requires WithDataDir")
		}
		srv, err := serve.New(s.cfg)
		return srv, nil, err
	}
	return serve.Open(s.cfg, s.persist)
}
