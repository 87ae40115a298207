package serve

import (
	"context"
	"errors"
	"fmt"
	"testing"

	"acobe/internal/cert"
)

// auditCfg / auditPersist are the shared shapes for audit tests.
func auditPersist() PersistConfig {
	return PersistConfig{SnapshotEvery: 8, SegmentBytes: 4096}
}

// openAudit opens a durable server in dir, failing the test on error.
func openAudit(t *testing.T, dir string, shards int) (*Server, *RecoverInfo) {
	t.Helper()
	cfg := persistCfg()
	cfg.Shards = shards
	p := auditPersist()
	p.Dir = dir
	s, info, err := Open(cfg, p)
	if err != nil {
		t.Fatalf("open durable server: %v", err)
	}
	return s, info
}

// feedDaysProvable feeds days [from, to] via SubmitProvable, returning each
// day's batch ID and how many events it submitted under it.
func feedDaysProvable(t *testing.T, s *Server, from, to cert.Day) (ids []uint64, counts []int) {
	t.Helper()
	ctx := context.Background()
	for d := from; d <= to; d++ {
		evs := persistDayEvents(d)
		id, err := s.SubmitProvable(ctx, evs)
		if err != nil {
			t.Fatalf("submit day %v: %v", d, err)
		}
		if id == 0 {
			t.Fatalf("day %v: audited submit assigned no batch ID", d)
		}
		ids, counts = append(ids, id), append(counts, len(evs))
		if err := s.CloseDay(ctx, d); err != nil {
			t.Fatalf("close day %v: %v", d, err)
		}
	}
	return ids, counts
}

// verifyProof checks one ProofResult end to end with the audit package's
// verifier.
func verifyProof(t *testing.T, res ProofResult) {
	t.Helper()
	if !res.Proof.Verify(res.Root) {
		t.Fatalf("proof for batch %d event %d does not verify against its root", res.BatchID, res.Event)
	}
}

// assertProvableSuffix checks a server's proof index — live behind its
// prunes, or rebuilt by a restart — against the batches it acknowledged.
// Every batch ID must either prove whole (every event index yields a
// verifying path, one past the end is ErrUnknownEvent, and BatchEvents is
// exactly counts[i], the events submitted under it — pass nil counts when
// late filtering makes them unknowable) or be ErrUnknownBatch because
// pruning dropped a segment holding one of its parts; a batch answered
// from only some of its parts would show as a short count. Once one ID is
// provable every later one must be too, and the newest batch always is.
// It returns how many batches were unknown, so a caller can require that
// pruning really happened.
func assertProvableSuffix(t *testing.T, s *Server, ids []uint64, counts []int) (unknown int) {
	t.Helper()
	seen := false
	for i, id := range ids {
		n, err := s.BatchEvents(id)
		if errors.Is(err, ErrUnknownBatch) {
			if seen {
				t.Fatalf("batch %d unknown after a provable earlier batch — hole in the index", id)
			}
			if _, err := s.Proof(id, 0); !errors.Is(err, ErrUnknownBatch) {
				t.Fatalf("proof of batch %d, which BatchEvents does not know: %v", id, err)
			}
			unknown++
			continue
		}
		if err != nil {
			t.Fatalf("batch %d: %v", id, err)
		}
		seen = true
		if counts != nil && n != counts[i] {
			t.Fatalf("batch %d holds %d events, %d were submitted — answered from a partial index", id, n, counts[i])
		}
		for ev := 0; ev < n; ev++ {
			res, err := s.Proof(id, ev)
			if err != nil {
				t.Fatalf("proof(%d, %d): %v", id, ev, err)
			}
			if res.BatchID != id || res.Event != ev {
				t.Fatalf("proof(%d, %d) answers for batch %d event %d", id, ev, res.BatchID, res.Event)
			}
			verifyProof(t, res)
		}
		if _, err := s.Proof(id, n); !errors.Is(err, ErrUnknownEvent) {
			t.Fatalf("proof past the end of batch %d: %v", id, err)
		}
	}
	if !seen {
		t.Fatal("no batch provable")
	}
	return unknown
}

// TestAuditEndToEnd drives the full audited lifecycle on one shard:
// provable ingest, inclusion proofs for every acked batch, a signed rank
// receipt, clean shutdown, an offline verify pass, and a recovery that
// restores provability.
func TestAuditEndToEnd(t *testing.T) {
	dir := t.TempDir()
	ctx := context.Background()

	s, info := openAudit(t, dir, 1)
	if info.SnapshotLoaded || info.ReplayedRecords != 0 {
		t.Fatalf("fresh open reported recovery: %+v", info)
	}
	if s.AuditFingerprint() == "" {
		t.Fatal("audited server reports no key fingerprint")
	}
	ids, counts := feedDaysProvable(t, s, 0, 20)

	// Every acked batch the retained log still holds yields a verifying
	// proof for every event; the two snapshot rounds pruned the oldest.
	if assertProvableSuffix(t, s, ids, counts) == 0 {
		t.Fatal("no batch was pruned from the live proof index — the horizon check is vacuous")
	}
	if _, err := s.Proof(1<<60, 0); !errors.Is(err, ErrUnknownBatch) {
		t.Fatalf("proof of unknown batch: %v", err)
	}

	// A signed rank receipt, verifiable with the public key.
	if err := s.Retrain(ctx, 0, 14, true); err != nil {
		t.Fatal(err)
	}
	list, rc, err := s.RankReceipt(ctx, 15, 20)
	if err != nil {
		t.Fatalf("rank receipt: %v", err)
	}
	if len(list) == 0 {
		t.Fatal("receipt over empty ranking")
	}
	pub := s.auditPub()
	if !rc.VerifySig(pub) {
		t.Fatal("receipt signature does not verify")
	}
	bad := rc
	bad.ListHash[0] ^= 1
	if bad.VerifySig(pub) {
		t.Fatal("receipt signature verified a mutated list hash")
	}

	shutdown(t, s)

	// Offline verification of the cleanly shut-down directory.
	rep, err := VerifyAudit(dir, pub)
	if err != nil {
		t.Fatalf("verify clean directory: %v", err)
	}
	// Snapshot pruning drops early segments, so the walk covers a suffix
	// of the batches — never zero, and everything it covers verified.
	if rep.Frames == 0 || rep.Seals == 0 || rep.Batches == 0 || rep.Batches > len(ids) || rep.Receipts != 1 {
		t.Fatalf("verify report looks wrong: %+v", rep)
	}
	if rep.Snapshots == 0 {
		t.Fatalf("no snapshots verified: %+v", rep)
	}

	// Recovery restores the proof index over the surviving (post-pruning)
	// log: recent batches stay provable; pruned ones are unknown, not
	// wrong.
	s2, info2 := openAudit(t, dir, 1)
	defer shutdown(t, s2)
	if !info2.SnapshotLoaded {
		t.Fatalf("no snapshot recovered: %+v", info2)
	}
	assertProvableSuffix(t, s2, ids, counts)
	// The restarted server appends onto the same chain without breaking it.
	feedDaysProvable(t, s2, 21, 24)
	shutdown(t, s2)
	if _, err := VerifyAudit(dir, pub); err != nil {
		t.Fatalf("verify after restart+append: %v", err)
	}
}

// TestAuditShardedEndToEnd drives the audited lifecycle across shard
// counts: cross-shard batches prove every event through the global index
// order, manifests attest per-shard heads, and recovery keeps proofs.
func TestAuditShardedEndToEnd(t *testing.T) {
	for _, shards := range []int{3, 8} {
		shards := shards
		t.Run(fmt.Sprintf("shards=%d", shards), func(t *testing.T) {
			dir := t.TempDir()
			s, _ := openAudit(t, dir, shards)
			ids, counts := feedDaysProvable(t, s, 0, 16)
			assertProvableSuffix(t, s, ids, counts)
			pub := s.auditPub()
			shutdown(t, s)

			rep, err := VerifyAudit(dir, pub)
			if err != nil {
				t.Fatalf("verify: %v", err)
			}
			if rep.Shards != shards || rep.Manifests == 0 {
				t.Fatalf("verify report looks wrong: %+v", rep)
			}

			s2, info := openAudit(t, dir, shards)
			if !info.SnapshotLoaded {
				t.Fatalf("no manifest generation recovered: %+v", info)
			}
			assertProvableSuffix(t, s2, ids, counts)
			shutdown(t, s2)
			if _, err := VerifyAudit(dir, pub); err != nil {
				t.Fatalf("verify after restart: %v", err)
			}
		})
	}
}

// TestInMemoryServerRefusesAudit: the chain lives in a data directory's
// WAL, so a server without one answers every audit call with
// ErrAuditDisabled and reports no key.
func TestInMemoryServerRefusesAudit(t *testing.T) {
	s, err := New(persistCfg())
	if err != nil {
		t.Fatal(err)
	}
	defer shutdown(t, s)
	feedDays(t, s, 0, 3)
	if _, err := s.SubmitProvable(context.Background(), persistDayEvents(4)); !errors.Is(err, ErrAuditDisabled) {
		t.Fatalf("SubmitProvable in memory: %v", err)
	}
	if _, err := s.Proof(1, 0); !errors.Is(err, ErrAuditDisabled) {
		t.Fatalf("Proof in memory: %v", err)
	}
	if _, _, err := s.RankReceipt(context.Background(), 0, 3); !errors.Is(err, ErrAuditDisabled) {
		t.Fatalf("RankReceipt in memory: %v", err)
	}
	if got := s.AuditFingerprint(); got != "" {
		t.Fatalf("fingerprint in memory: %q", got)
	}
}
