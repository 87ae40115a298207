// Package serve is the online half of the repository: a long-running
// scoring service that ingests audit-log events continuously, advances the
// per-user deviation state one closed day at a time in O(1) per cell
// (deviation.StreamField over running sums), and answers ranked
// investigation-list queries from a trained ensemble through pkg/acobe.
//
// The data path is built for byte-identical parity with the offline batch
// pipeline: the same extractors fill the measurement tables, the group
// table repeats GroupTable's member-sum order, the streaming window
// advance performs the batch field's floating-point operations in the
// batch order, and training/scoring run through the same facade. Feeding
// the daemon a dataset day by day therefore yields exactly the ranked
// list the batch pipeline prints for that dataset (asserted against the
// committed golden snapshots).
//
// There is one serving path at every shard count:
//
//   - Per-user state is partitioned across Config.Shards consistent-hashed
//     shards (default 1). Each shard owns a goroutine, a bounded ingest
//     queue, its own extractor and sliding-window accumulators, and (with
//     persistence) its own WAL segment stream — so ingest parallelizes
//     across shards. The extractor folds each event into its day's open
//     state as the event is applied; no raw event is held.
//   - A coordinator goroutine serializes day-closes: it reserves room for
//     the new days in the server's one shared deviation field, broadcasts
//     a close barrier to every shard, and waits for all of them to write
//     their users' accumulated days into their tables. Each shard's window
//     advance writes its users'
//     rows of the new days straight into the shared field; the
//     coordinator then fills the group table in ascending global user
//     index — the batch pipeline's exact operation order — advances the
//     one group stream, and publishes. Rankings are therefore
//     byte-identical regardless of the shard count.
//   - The shared-field invariant is what makes that race-free with no
//     second copy of σ: a published state holds immutable headers
//     (deviation.Field.Freeze) over the shared storage, fixed at the day
//     count of their publish. Shards only ever write rows of days beyond
//     every published day count, the rows of different shards are
//     disjoint, and a capacity doubling allocates new storage while old
//     headers keep the old one — so nothing a reader can reach through a
//     header is written again. Only the coordinator reserves capacity
//     (before the barrier) and extends the day count (after every shard
//     acked).
//   - The headers, the detector bound to them, and the closed-through day
//     are published together through one atomic pointer. Publishers — a
//     day close, and a retrain swapping its model in — serialize on a
//     plain mutex; Rank, Status, and Retrain's setup are a pointer load.
//   - A user-day is scored once per trained model: ranks read and extend
//     a fill-once memo of score columns that a close carries forward and
//     only a retrain swap replaces (scoreMemo, rank.go), so a repeated
//     window costs the aggregate and the critic and the window after a
//     close scores one new day.
//   - Retraining fits directly on the published headers, which never
//     change, with no lock and no copy; models fit in parallel
//     (core.Detector.Fit's ensemble concurrency) and the trained weights
//     are rebound onto whatever is published at the instant of the swap
//     (the old detector answers until then).
package serve

import (
	"context"
	"crypto/ed25519"
	"errors"
	"fmt"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"acobe/internal/audit"
	"acobe/internal/cert"
	"acobe/internal/deviation"
	"acobe/internal/features"
	"acobe/internal/obs"
	"acobe/pkg/acobe"
)

// Typed failures surfaced to API clients.
var (
	// ErrNoModel is returned by Rank before the first successful retrain.
	ErrNoModel = errors.New("serve: no trained model yet")
	// ErrRetrainInProgress is returned when a retrain is already running.
	ErrRetrainInProgress = errors.New("serve: retrain already in progress")
	// ErrShuttingDown is returned by Submit/CloseDay after Shutdown began.
	ErrShuttingDown = errors.New("serve: shutting down")
	// ErrBatchTooLarge is returned by Submit when one batch's WAL encoding
	// exceeds the frame cap. The batch is rejected whole; the server keeps
	// running — an input-size problem is the client's to split, not a
	// persistence failure.
	ErrBatchTooLarge = errors.New("serve: batch too large for one WAL frame")
	// ErrPayloadRejected is returned by Submit when an event's payload type
	// is one the ingestor cannot consume (a record sent to a CERT daemon).
	// The batch is rejected whole, before it is queued or logged.
	ErrPayloadRejected = errors.New("serve: payload type not accepted by this ingestor")
)

// Config wires a Server.
type Config struct {
	// Users lists every scored user ID, in index order.
	Users []string
	// Groups and Membership declare the peer groups (Membership[u] indexes
	// Groups; -1 excludes the user). Leave Groups empty to serve without
	// group deviations (the No-Group variant).
	Groups     []string
	Membership []int
	// Start is the first measured day.
	Start cert.Day
	// Deviation carries ω, 𝒟, Δ, ε and weighting.
	Deviation deviation.Config
	// IngestorFactory builds one ingestor per shard over that shard's
	// user subset — every user, at one shard. It fills the measurement
	// table from the events as they arrive. Defaults to NewCERTIngestor.
	IngestorFactory func(users []string, start cert.Day) (Ingestor, error)
	// DetectorOptions configure the ensemble built at each retrain
	// (aspects, model size, seed, votes, train stride, ...). Group
	// deviation inclusion is derived from Groups and must not be set here.
	DetectorOptions []acobe.Option
	// QueueSize bounds each ingest queue in batches (default 64). When a
	// queue is full, Submit blocks — backpressure, not buffering.
	QueueSize int
	// Shards partitions the per-user state (default 1). Users are placed
	// on a consistent-hash ring keyed by user ID, so placement depends
	// only on (user ID, shard count). Rankings are byte-identical across
	// any shard count; a data directory is tied to the count it was
	// written with.
	Shards int
	// Observer, when non-nil, turns on per-stage instrumentation: latency
	// histograms and counters recorded allocation-free on the hot path,
	// exposed through Server.MetricsSnapshot, GET /metrics, and the
	// status report. Leave nil to serve without recording (the hooks
	// reduce to one branch each). One Observer serves one Server.
	Observer *obs.Observer
}

// envelope is one unit of shard/coordinator work: an event batch (or one
// shard's slice of it), a close-through-day barrier (isClose), a snapshot
// request (isSnap), or a rank receipt to log (isReceipt). done, when
// non-nil, receives the outcome — always set for closes, snapshots, and
// receipts, and set for event batches when persistence is on (Submit acks
// only after the batch hit the WAL).
type envelope struct {
	events       []Event
	batchID      uint64 // batch identity across the shard logs
	parts        uint32 // how many shard logs carry a slice of the batch
	closeThrough cert.Day
	at           time.Time // isClose: when the coordinator sent the barrier
	isClose      bool
	isSnap       bool
	isReceipt    bool
	rcpt         *audit.Receipt // isReceipt: filled/signed on the shard goroutine
	done         chan error
}

// shard owns one consistent-hash partition of the per-user state. Its
// fields other than the queue and counters are owned by the shard's drain
// goroutine (and by recovery, which runs before it starts).
type shard struct {
	idx int
	// users is the shard's user subset in global index order; global maps
	// a local index back to the configured global index.
	users  []string
	global []int

	ing Ingestor // nil when the shard holds no users
	// ind holds the shard's users' sliding windows and writes their rows
	// of each closed day into Server.sigma (nil when ing is nil).
	ind *deviation.StreamField

	// closedThrough is the shard's own applied close barrier. It equals
	// the server's closedThrough except transiently inside a close.
	closedThrough cert.Day

	// snapHead is the chain head this shard's latest snapshot attested
	// (audit mode). Written on the shard goroutine inside the snapshot
	// envelope; the coordinator reads it for the manifest only after the
	// shard acked, so the ack channel orders the accesses.
	snapHead audit.Head

	// applyErr is the first failed apply of a batch nobody waited for (an
	// in-memory server acks at enqueue); the next close returns it.
	applyErr error
	// phases times the shard's last close barrier; like snapHead it is
	// read by the coordinator after the ack.
	phases obs.ClosePhases

	queue chan envelope

	// Events that reached a measurement, that arrived after their day
	// closed, and that named a user the shard does not hold (the last per
	// process, replay included; snapshots carry the first two).
	ingested atomic.Int64
	late     atomic.Int64
	unknown  atomic.Int64

	wal *wal // nil without persistence

	// stats is the shard's private recording cell (nil without an
	// Observer): apply/fsync latency, WAL traffic, queue high-water mark.
	stats *obs.ShardStats
}

// published is one immutable serving state: frozen headers over the
// shared deviation storage as of closedThrough, and the detector bound to
// them (nil before the first successful retrain). Nothing reachable from
// it is written after the publish, so readers use it with no lock — with
// one fill-once exception: scores, the detector's model's score memo,
// which ranks extend. It stays safe to read unlocked because what it adds
// is immutable and determined by (model, day) alone, readers reach it
// through its own atomic index, and every state sharing the pointer shares
// the model (see scoreMemo).
type published struct {
	ind           *deviation.Field
	grp           *deviation.Field // nil without groups
	det           *acobe.Detector
	scores        *scoreMemo // nil exactly when det is
	closedThrough cert.Day
}

// Server is the online scoring daemon's engine, independent of its HTTP
// shell (cmd/acobed).
type Server struct {
	cfg    Config
	router *router
	shards []*shard
	// userShard and userLocal map a global user index to its owning shard
	// and its index inside that shard.
	userShard []int
	userLocal []int
	// checker is any shard's ingestor, used for payload-type vetting
	// (every shard runs the same ingestor type).
	checker Ingestor
	feats   []string
	frames  int

	// sigma is the one copy of the per-user deviations, rows in global
	// user order. Its table holds only shape metadata (the detector's
	// matrix builders read deviations, never raw measurements — those
	// stay in the shard tables). At a close every shard's stream writes
	// its users' rows of the new days into it; the coordinator reserves
	// the room beforehand and extends the day count afterwards, and is
	// the only goroutine that touches the struct itself between barriers
	// (recovery does, before the goroutines start). grpTbl/grp are the
	// group measurement table and its deviation stream (nil without
	// groups), filled and advanced by the coordinator alone.
	sigma   *deviation.Field
	grpTbl  *features.Table
	grp     *deviation.StreamField
	invSize []float64 // 1/|group|, GroupTable's exact factor

	// pub is the current serving state; Rank, Status, and Retrain's setup
	// load it and never lock. pubMu serializes the two publishers (a day
	// close, and a retrain swapping its model in) so neither overwrites
	// the other's half of the state.
	pub   atomic.Pointer[published]
	pubMu sync.Mutex

	// rankBufs recycles the *rankBuf a rank assembles its window in.
	rankBufs sync.Pool

	qmu    sync.RWMutex  // guards queue sends against close(queue)
	queue  chan envelope // the coordinator's close queue
	closed bool          // under qmu

	// snapMu serializes Submit fan-out against snapshot rounds. A
	// snapshot cut is consistent only if every batch sits wholly behind or
	// wholly ahead of it: were the isSnap broadcast to interleave with a
	// fan-out, one shard could bake its part into its snapshot (frame
	// behind the recorded WAL position) while a sibling logs its part past
	// its own — recovery's completeness check would then see a lone tail
	// part, count the batch as partial, and drop half of an acknowledged
	// batch. The fan-out holds the read side across the enqueue loop; the
	// coordinator holds the write side from the isSnap broadcast until
	// every shard acked, so a batch's parts sit either all before or all
	// after the snap envelope in every shard's FIFO queue.
	snapMu sync.RWMutex

	// nextBatch numbers batches; recovery advances it past both the
	// manifest's persisted high-water mark and every batch ID seen in the
	// WAL tails, so IDs never collide across restarts (stale and fresh
	// frames with one ID would poison a recovery that falls back a
	// manifest generation and scans frames from both boots).
	nextBatch atomic.Uint64

	retraining   atomic.Bool
	lastTrainErr atomic.Value // error from the most recent retrain, or nil

	// Persistence (nil pcfg = disabled). Each shard's WAL appender is
	// owned by that shard's goroutine; snapshot cadence is owned by the
	// coordinator. persistFail is the fail-stop latch: set once, read by
	// every later Submit/CloseDay.
	pcfg          *PersistConfig
	fs            persistFS
	failMu        sync.Mutex
	persistFail   atomic.Value // errBox
	daysSinceSnap int
	recovery      *RecoverInfo

	// Audit layer (PersistConfig.Audit only). auditPriv is the data
	// directory's ed25519 signing key; auditIdx is the in-memory proof
	// index (batch ID → logged parts): written by shard goroutines as
	// parts land, dropped by prune() with the segments they point into,
	// and rebuilt by recovery's walk of the retained log.
	auditPriv ed25519.PrivateKey
	auditMu   sync.RWMutex
	auditIdx  map[uint64][]partAudit

	// obs mirrors cfg.Observer (nil = instrumentation off); startTime
	// feeds the status report's uptime.
	obs       *obs.Observer
	startTime time.Time

	lifeCtx   context.Context
	cancel    context.CancelFunc
	drainWG   sync.WaitGroup
	retrainWG sync.WaitGroup
}

// New validates the configuration and starts the shard goroutines. The
// server is purely in-memory; use Open for crash-safe persistence.
func New(cfg Config) (*Server, error) {
	s, err := newCore(cfg)
	if err != nil {
		return nil, err
	}
	s.start()
	return s, nil
}

// newCore builds the server's ingest state without starting workers;
// recovery restores into it before the first envelope is drained.
func newCore(cfg Config) (*Server, error) {
	if len(cfg.Users) == 0 {
		return nil, errors.New("serve: no users configured")
	}
	if err := cfg.Deviation.Validate(); err != nil {
		return nil, fmt.Errorf("serve: %w", err)
	}
	if cfg.QueueSize <= 0 {
		cfg.QueueSize = 64
	}
	if cfg.Shards <= 0 {
		cfg.Shards = 1
	}
	s := &Server{
		cfg:    cfg,
		router: newRouter(cfg.Shards),
		obs:    cfg.Observer,
		queue:  make(chan envelope, cfg.QueueSize),
	}
	s.rankBufs.New = func() any { return new(rankBuf) }

	// Partition the users. Placement depends only on (user ID, shard
	// count); each shard's subset keeps the global relative order, which
	// is what lets the group fill walk users in ascending global index.
	shardUsers := make([][]string, cfg.Shards)
	shardGlobal := make([][]int, cfg.Shards)
	s.userShard = make([]int, len(cfg.Users))
	s.userLocal = make([]int, len(cfg.Users))
	for u, name := range cfg.Users {
		k := s.router.shardOf(name)
		s.userShard[u] = k
		s.userLocal[u] = len(shardUsers[k])
		shardUsers[k] = append(shardUsers[k], name)
		shardGlobal[k] = append(shardGlobal[k], u)
	}

	factory := cfg.IngestorFactory
	if factory == nil {
		factory = func(users []string, start cert.Day) (Ingestor, error) {
			return NewCERTIngestor(users, start)
		}
	}
	for k := 0; k < cfg.Shards; k++ {
		sh := &shard{
			idx:           k,
			users:         shardUsers[k],
			global:        shardGlobal[k],
			closedThrough: cfg.Start - 1,
			queue:         make(chan envelope, cfg.QueueSize),
			stats:         cfg.Observer.ShardStats(k, cfg.Shards),
		}
		s.shards = append(s.shards, sh)
		if len(sh.users) == 0 {
			continue
		}
		ing, err := factory(sh.users, cfg.Start)
		if err != nil {
			return nil, fmt.Errorf("serve: shard %d ingestor: %w", k, err)
		}
		t := ing.Table()
		if !slices.Equal(t.Users(), sh.users) {
			return nil, fmt.Errorf("serve: shard %d ingestor table does not cover the shard's users", k)
		}
		if s.checker == nil {
			s.checker = ing
			s.feats = t.Features()
			s.frames = t.Frames()
			shape, err := features.NewTable(cfg.Users, s.feats, s.frames, cfg.Start, cfg.Start)
			if err != nil {
				return nil, fmt.Errorf("serve: deviation field shape: %w", err)
			}
			if s.sigma, err = deviation.NewEmptyField(shape, cfg.Deviation); err != nil {
				return nil, fmt.Errorf("serve: %w", err)
			}
		}
		sh.ing = ing
		if sh.ind, err = deviation.NewStreamFieldInto(t, s.sigma, sh.global); err != nil {
			return nil, fmt.Errorf("serve: shard %d: %w", k, err)
		}
	}

	if len(cfg.Groups) > 0 {
		if len(cfg.Membership) != len(cfg.Users) {
			return nil, fmt.Errorf("serve: membership has %d entries for %d users", len(cfg.Membership), len(cfg.Users))
		}
		sizes := make([]int, len(cfg.Groups))
		for u, g := range cfg.Membership {
			if g >= len(cfg.Groups) {
				return nil, fmt.Errorf("serve: user %d in group %d, only %d groups", u, g, len(cfg.Groups))
			}
			if g >= 0 {
				sizes[g]++
			}
		}
		s.invSize = make([]float64, len(cfg.Groups))
		for g, n := range sizes {
			if n == 0 {
				return nil, fmt.Errorf("serve: group %q has no members", cfg.Groups[g])
			}
			s.invSize[g] = 1 / float64(n)
		}
		var err error
		s.grpTbl, err = features.NewTable(cfg.Groups, s.feats, s.frames, cfg.Start, cfg.Start)
		if err != nil {
			return nil, fmt.Errorf("serve: group table: %w", err)
		}
		if s.grp, err = deviation.NewStreamField(s.grpTbl, cfg.Deviation); err != nil {
			return nil, fmt.Errorf("serve: %w", err)
		}
	}
	if err := s.publish(cfg.Start - 1); err != nil {
		return nil, err
	}
	return s, nil
}

// start launches the shard goroutines and the close coordinator; no
// envelopes are processed before it.
func (s *Server) start() {
	s.startTime = time.Now()
	s.lifeCtx, s.cancel = context.WithCancel(context.Background())
	for _, sh := range s.shards {
		s.drainWG.Add(1)
		go s.shardDrain(sh)
	}
	s.drainWG.Add(1)
	go s.coordinate()
}

// adoptCore replaces this server's ingest state with a freshly built
// core's. Recovery uses it to retry a snapshot load from scratch: a
// half-loaded corrupt snapshot must not leak into the next attempt.
func (s *Server) adoptCore(c *Server) {
	s.router = c.router
	s.shards = c.shards
	s.userShard = c.userShard
	s.userLocal = c.userLocal
	s.checker = c.checker
	s.feats = c.feats
	s.frames = c.frames
	s.sigma = c.sigma
	s.grpTbl = c.grpTbl
	s.grp = c.grp
	s.invSize = c.invSize
	s.pub.Store(c.pub.Load())
	s.queue = c.queue
}

// persistent reports whether the persistence layer is enabled.
func (s *Server) persistent() bool { return s.pcfg != nil }

// send enqueues one envelope with backpressure. stats, when non-nil, is
// the receiving shard's recording cell (the queue high-water mark is
// meaningless for the coordinator's queue, whose senders pass nil).
func (s *Server) send(ctx context.Context, ch chan envelope, env envelope, stats *obs.ShardStats) error {
	if err := s.persistErr(); err != nil {
		return err
	}
	s.qmu.RLock()
	defer s.qmu.RUnlock()
	if s.closed {
		return ErrShuttingDown
	}
	enq := s.obs.Clock()
	select {
	case ch <- env:
		s.obs.ObserveEnqueue(enq)
		stats.NoteQueueDepth(len(ch))
		return nil
	case <-ctx.Done():
		return ctx.Err()
	}
}

// errBox lets atomic.Value hold nil errors uniformly.
type errBox struct{ err error }

// persistErr returns the fail-stop latch, or nil.
func (s *Server) persistErr() error {
	if box, ok := s.persistFail.Load().(errBox); ok && box.err != nil {
		return box.err
	}
	return nil
}

// failPersist latches the first persistence failure and returns the
// latched error. Shard goroutines may race here; the mutex keeps the
// first failure the latched one.
func (s *Server) failPersist(err error) error {
	s.failMu.Lock()
	defer s.failMu.Unlock()
	if s.persistErr() == nil {
		s.persistFail.Store(errBox{fmt.Errorf("%w: %w", ErrPersistenceFailed, err)})
	}
	return s.persistErr()
}

// Shutdown stops accepting work, cancels any in-flight retrain, drains
// every already-queued batch and day-close to completion, and waits for
// the workers to exit (bounded by ctx). Only the coordinator's queue is
// closed here; the coordinator closes the shard queues after its own loop
// drains, so no goroutine ever sends on a closed channel.
func (s *Server) Shutdown(ctx context.Context) error {
	s.qmu.Lock()
	if !s.closed {
		s.closed = true
		close(s.queue)
		s.cancel()
	}
	s.qmu.Unlock()

	done := make(chan struct{})
	go func() {
		s.drainWG.Wait()
		s.retrainWG.Wait()
		close(done)
	}()
	select {
	case <-done:
		return nil
	case <-ctx.Done():
		return ctx.Err()
	}
}
