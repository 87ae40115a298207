// Command acobed is the online ACOBE scoring daemon: it ingests audit-log
// events continuously over HTTP, advances each user's deviation windows
// incrementally as days close, retrains the autoencoder ensemble on demand
// without pausing ingest, and serves ranked investigation lists.
//
// The HTTP API (see internal/serve):
//
//	POST /v1/ingest          one JSON event per line
//	POST /v1/close?day=D     close every day through D and slide the windows
//	GET  /v1/rank?from=&to=&top=N
//	POST /v1/retrain?from=&to=&wait=1
//	GET  /v1/status
//	GET  /healthz
//	GET  /v1/proof?batch=&event=   (-data-dir) inclusion proof for an ingested event
//	POST /v1/receipt?from=&to=     (-data-dir) ranked list with a signed receipt
//
// Usage:
//
//	acobed -listen :8467 -users alice,bob,carol -groups eng -membership 0,0,0
//	acobed -data-dir /var/lib/acobe -users ...
//	acobed -verify -data-dir /var/lib/acobe
//	acobed -selftest
//
// A -data-dir is the audit trail too: every WAL frame is sealed into a
// per-segment SHA-256 hash chain, every batch commits a Merkle root, and
// snapshots, manifests and rank receipts are signed with the directory's
// ed25519 audit key. -verify walks such a directory offline and exits
// non-zero with a segment/offset diagnostic if any sealed byte was
// modified after the fact.
//
// A -data-dir is read only in the one format the daemon writes: a misnamed
// file, a WAL segment or record of a retired form (the unchained version-1
// segment among them), or a snapshot or manifest of an earlier version
// stops both the start and -verify, and a snapshot holding an open day in
// a retired form stops the start, each with an error naming the file. A
// -data-dir is tied to -users, -start, -shards and -mode (the ingestor);
// -groups, -membership and the deviation flags may change across restarts.
//
// -selftest synthesizes a small organization, replays it day by day through
// a real HTTP listener (ingest → close → retrain → rank), and prints the
// resulting investigation list as CSV. The output is deterministic; the
// Makefile's serve-smoke target diffs it against a committed golden copy.
// The selftest ends with an audit leg: a second daemon with a -data-dir,
// proving and verifying an ingested batch end to end.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"os/signal"
	"path/filepath"
	"strconv"
	"strings"
	"syscall"
	"time"

	"acobe/internal/cert"
	"acobe/internal/deviation"
	"acobe/internal/enterprise"
	"acobe/pkg/acobe"
	"acobe/pkg/acobe/daemon"
)

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "acobed:", err)
		os.Exit(1)
	}
}

func run(args []string, stdout io.Writer) error {
	fs := flag.NewFlagSet("acobed", flag.ContinueOnError)
	var (
		listen     = fs.String("listen", "127.0.0.1:8467", "HTTP listen address")
		mode       = fs.String("mode", "cert", "log family to extract: cert or enterprise")
		usersFlag  = fs.String("users", "", "comma-separated user IDs (required)")
		groupsFlag = fs.String("groups", "", "comma-separated peer-group names (empty: serve without group deviations)")
		memberFlag = fs.String("membership", "", "comma-separated group index per user, each in 0..len(-groups)-1 (required with -groups)")
		startFlag  = fs.String("start", "0", "first measured day (YYYY-MM-DD or day index)")
		window     = fs.Int("window", 30, "ω: sliding history length in days")
		matrixDays = fs.Int("matrix-days", 14, "𝒟: days per compound matrix")
		delta      = fs.Float64("delta", 3, "Δ: deviation clamp")
		epsilon    = fs.Float64("epsilon", 1, "ε: floor on the history std")
		weighted   = fs.Bool("weighted", true, "apply the paper's TF-style feature weights")
		seed       = fs.Uint64("seed", 7, "model-initialization seed")
		votes      = fs.Int("votes", 3, "critic vote count N")
		stride     = fs.Int("stride", 2, "training matrix day stride")
		queue      = fs.Int("queue", 64, "ingest queue bound in batches")
		shards     = fs.Int("shards", 1, "per-user state shards; each shard ingests, extracts, and logs on its own goroutine")
		dataDir    = fs.String("data-dir", "", "durability directory (WAL + snapshots); empty serves from memory only")
		fsyncFlag  = fs.String("fsync", "close", "WAL fsync policy with -data-dir: close, always, or never")
		snapEvery  = fs.Int("snapshot-interval", 30, "closed days between state snapshots with -data-dir")
		pprofFlag  = fs.String("pprof", "", "net/http/pprof: 'self' mounts /debug/pprof/ on the API listener, an address (e.g. localhost:6060) serves it separately, empty disables")
		verify     = fs.Bool("verify", false, "offline: verify a -data-dir's full chain and exit (non-zero on tampering)")
		pubFlag    = fs.String("pub", "", "audit public key for -verify (default <data-dir>/"+daemon.AuditPubFileName+")")
		selftest   = fs.Bool("selftest", false, "run the built-in end-to-end smoke over real HTTP and exit")
		smokeFlag  = fs.Bool("audit-smoke", false, "build a tiny audited -data-dir (provable ingest → proof → clean shutdown → offline verify) and exit; the Makefile audit-smoke target tampers it afterwards")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	pprofSelf := *pprofFlag == "self"
	if *pprofFlag != "" && !pprofSelf {
		if err := startPprof(*pprofFlag, stdout); err != nil {
			return err
		}
	}
	if *verify {
		return runVerify(stdout, *dataDir, *pubFlag)
	}
	if *smokeFlag {
		if *dataDir == "" {
			return errors.New("-audit-smoke requires -data-dir")
		}
		return runAuditSmoke(stdout, *dataDir)
	}
	if *selftest {
		return runSelftest(stdout, *shards)
	}

	users := splitList(*usersFlag)
	if len(users) == 0 {
		return errors.New("-users is required (comma-separated IDs)")
	}
	cfg := daemon.Config{
		Users: users,
		Deviation: deviation.Config{
			Window: *window, MatrixDays: *matrixDays,
			Delta: *delta, Epsilon: *epsilon, Weighted: *weighted,
		},
	}
	var err error
	if cfg.Start, err = parseDayArg(*startFlag); err != nil {
		return fmt.Errorf("-start: %w", err)
	}
	if groups := splitList(*groupsFlag); len(groups) > 0 {
		cfg.Groups = groups
		if cfg.Membership, err = parseInts(*memberFlag); err != nil {
			return fmt.Errorf("-membership: %w", err)
		}
	}
	opts := []daemon.Option{
		daemon.WithShards(*shards),
		daemon.WithQueueSize(*queue),
	}
	var aspects []acobe.Aspect
	switch *mode {
	case "cert":
		aspects = acobe.ACOBEAspects()
	case "enterprise":
		aspects = enterprise.Aspects()
		// A factory rather than a prebuilt ingestor: each shard extracts
		// its own user subset (identical to one global extractor at -shards 1).
		opts = append(opts, daemon.WithIngestorFactory(func(users []string, start daemon.Day) (daemon.Ingestor, error) {
			return daemon.NewEnterpriseIngestor(users, start)
		}))
	default:
		return fmt.Errorf("-mode: unknown log family %q", *mode)
	}
	cfg.DetectorOptions = []acobe.Option{
		acobe.WithAspects(aspects...),
		acobe.WithSeed(*seed),
		acobe.WithVotes(*votes),
		acobe.WithTrainStride(*stride),
	}
	if *dataDir != "" {
		policy, err := daemon.ParseFsyncPolicy(*fsyncFlag)
		if err != nil {
			return fmt.Errorf("-fsync: %w", err)
		}
		opts = append(opts,
			daemon.WithDataDir(*dataDir),
			daemon.WithFsync(policy),
			daemon.WithSnapshotEvery(*snapEvery),
		)
	}

	srv, info, err := daemon.Start(cfg, opts...)
	if err != nil {
		return err
	}
	if info != nil {
		fmt.Fprintf(stdout, "acobed: recovered %s: closed through %v, %d records replayed (snapshot=%v), %d torn bytes truncated\n",
			*dataDir, info.ClosedThrough, info.ReplayedRecords, info.SnapshotLoaded, info.TornBytes)
		fmt.Fprintf(stdout, "acobed: audit key fingerprint %s (share %s for offline -verify)\n",
			srv.AuditFingerprint(), filepath.Join(*dataDir, daemon.AuditPubFileName))
	}
	ln, err := net.Listen("tcp", *listen)
	if err != nil {
		return err
	}
	fmt.Fprintf(stdout, "acobed: serving %d users on http://%s\n", len(users), ln.Addr())
	return serveHTTP(srv, ln, stdout, pprofSelf)
}

// runVerify is the offline chain verifier: load the audit public key,
// walk the directory, and report either the verified surface or the first
// divergence (the process exit code is the verdict).
func runVerify(stdout io.Writer, dir, pubPath string) error {
	if dir == "" {
		return errors.New("-verify requires -data-dir")
	}
	if pubPath == "" {
		pubPath = filepath.Join(dir, daemon.AuditPubFileName)
	}
	pub, err := daemon.LoadAuditPublicKey(pubPath)
	if err != nil {
		return fmt.Errorf("-verify: %w", err)
	}
	fmt.Fprintf(stdout, "acobed: verifying %s against key %s\n", dir, daemon.AuditKeyFingerprint(pub))
	rep, err := daemon.VerifyAudit(dir, pub)
	if err != nil {
		return fmt.Errorf("-verify: %w", err)
	}
	fmt.Fprintf(stdout, "acobed: chain intact: %d shard(s), %d segments, %d frames, %d batches (%d events), %d seals, %d receipts, %d snapshots, %d manifests\n",
		rep.Shards, rep.Segments, rep.Frames, rep.Batches, rep.Events, rep.Seals, rep.Receipts, rep.Snapshots, rep.Manifests)
	return nil
}

// startPprof serves the profiling handlers on their own listener, for
// deployments that keep /debug/pprof/ off the public API address (the
// in-mux alternative is -pprof self). Best-effort: it dies with the
// process rather than participating in graceful shutdown.
func startPprof(addr string, stdout io.Writer) error {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return fmt.Errorf("-pprof: %w", err)
	}
	fmt.Fprintf(stdout, "acobed: pprof on http://%s/debug/pprof/\n", ln.Addr())
	go func() { _ = http.Serve(ln, daemon.PprofHandler()) }()
	return nil
}

// serveHTTP runs the HTTP front end until SIGINT/SIGTERM, then drains the
// daemon: stop accepting requests, cancel any in-flight retrain, finish
// queued day-closes, and exit.
func serveHTTP(srv *daemon.Server, ln net.Listener, stdout io.Writer, pprofSelf bool) error {
	ctx, stop := signal.NotifyContext(context.Background(), syscall.SIGINT, syscall.SIGTERM)
	defer stop()

	hs := &http.Server{Handler: srv.Handler(daemon.WithPprofEndpoint(pprofSelf))}
	errCh := make(chan error, 1)
	go func() { errCh <- hs.Serve(ln) }()

	select {
	case err := <-errCh:
		return err
	case <-ctx.Done():
	}
	fmt.Fprintln(stdout, "acobed: shutting down")
	shutCtx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	err := hs.Shutdown(shutCtx)
	if serr := srv.Shutdown(shutCtx); err == nil {
		err = serr
	}
	return err
}

func splitList(s string) []string {
	if s == "" {
		return nil
	}
	parts := strings.Split(s, ",")
	out := parts[:0]
	for _, p := range parts {
		if p = strings.TrimSpace(p); p != "" {
			out = append(out, p)
		}
	}
	return out
}

func parseInts(s string) ([]int, error) {
	parts := splitList(s)
	out := make([]int, len(parts))
	for i, p := range parts {
		n, err := strconv.Atoi(p)
		if err != nil {
			return nil, err
		}
		out[i] = n
	}
	return out, nil
}

func parseDayArg(s string) (cert.Day, error) {
	if n, err := strconv.Atoi(s); err == nil {
		return cert.Day(n), nil
	}
	return cert.ParseDay(s)
}
