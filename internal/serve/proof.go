package serve

import (
	"context"
	"crypto/ed25519"
	"crypto/sha256"
	"encoding/json"
	"errors"
	"slices"
	"sort"

	"acobe/internal/audit"
	"acobe/internal/cert"
	"acobe/pkg/acobe"
)

// Audit-mode API errors.
var (
	// ErrAuditDisabled is returned by proof/receipt calls on a server
	// running without PersistConfig.Audit.
	ErrAuditDisabled = errors.New("serve: audit disabled")
	// ErrUnknownBatch is returned by Proof for a batch ID the retained log
	// does not hold whole: never acknowledged, or any of its parts pruned.
	// The proof horizon is the retained WAL segments — live and after a
	// restart alike.
	ErrUnknownBatch = errors.New("serve: unknown batch")
	// ErrUnknownEvent is returned by Proof for an event index past the
	// batch's end.
	ErrUnknownEvent = errors.New("serve: batch has no such event")
)

// partAudit is the proof index's record of one logged batch part: where
// its frame sits, the Merkle root the chain committed for it, and the
// leaf hashes the inclusion proof paths are built from.
type partAudit struct {
	shard int
	pos   walPos
	// parts is how many parts the frame declares for its batch. A batch is
	// provable only while all of them are indexed: shard streams rotate
	// and prune independently, and proving from the survivors alone would
	// shift the global event index.
	parts  uint32
	root   audit.Head
	leaves []audit.Head
}

// auditOn reports whether the tamper-evident audit layer is enabled.
func (s *Server) auditOn() bool { return s.pcfg != nil && s.pcfg.Audit }

// auditPub returns the audit signing key's public half.
func (s *Server) auditPub() ed25519.PublicKey {
	return s.auditPriv.Public().(ed25519.PublicKey)
}

// AuditFingerprint returns the signing key's pinned fingerprint ("" when
// audit is off).
func (s *Server) AuditFingerprint() string {
	if !s.auditOn() {
		return ""
	}
	return audit.Fingerprint(s.auditPub())
}

// recordBatchAudit indexes the part frame the shard just appended: its
// position, committed root, and leaf hashes, keyed by batch ID. Runs on
// the shard goroutine right after appendEvents, while the Merkle scratch
// tree still holds this batch's leaves.
func (s *Server) recordBatchAudit(sh *shard, batchID uint64, parts uint32) {
	a := sh.wal.aud
	leaves := append([]audit.Head(nil), a.tree.Leaves()...)
	s.auditMu.Lock()
	s.auditIdx[batchID] = append(s.auditIdx[batchID], partAudit{
		shard:  sh.idx,
		pos:    sh.wal.lastPos,
		parts:  parts,
		root:   a.root,
		leaves: leaves,
	})
	s.auditMu.Unlock()
}

// indexedParts returns a copy of batchID's proof-index entries, or
// ErrUnknownBatch unless every part the batch declares is indexed.
func (s *Server) indexedParts(batchID uint64) ([]partAudit, error) {
	if !s.auditOn() {
		return nil, ErrAuditDisabled
	}
	s.auditMu.RLock()
	parts := slices.Clone(s.auditIdx[batchID])
	s.auditMu.RUnlock()
	if len(parts) == 0 || len(parts) != int(parts[0].parts) {
		return nil, ErrUnknownBatch
	}
	return parts, nil
}

// SubmitProvable is Submit plus the assigned batch ID, the handle a
// client later passes to Proof (or GET /v1/proof) to obtain inclusion
// proofs for the batch's events. Only an audited server assigns IDs to
// every batch, so it requires PersistConfig.Audit.
func (s *Server) SubmitProvable(ctx context.Context, events []Event) (uint64, error) {
	if !s.auditOn() {
		return 0, ErrAuditDisabled
	}
	return s.submit(ctx, events)
}

// ProofResult locates and proves one ingested event: the shard log frame
// holding it, the batch Merkle root the hash chain committed at append
// time, and the inclusion path from the event's leaf to that root.
type ProofResult struct {
	BatchID uint64
	// Event is the global index within the batch: the concatenation of
	// the batch's parts in ascending shard order (a one-part batch has
	// one part, so the global index is the part index).
	Event int
	Shard int
	Seg   uint64
	Off   int64
	Root  audit.Head
	Proof audit.Proof
}

// Proof builds an inclusion proof for event index `event` of batch
// `batchID`. Any acknowledged batch whose every part still sits in a
// retained WAL segment is provable; verification needs only the proof,
// the root, and (for chain anchoring) an offline VerifyAudit walk of the
// log.
func (s *Server) Proof(batchID uint64, event int) (ProofResult, error) {
	parts, err := s.indexedParts(batchID)
	if err != nil {
		return ProofResult{}, err
	}
	// Global event order = parts in ascending shard order, each part in
	// its logged event order.
	sort.Slice(parts, func(i, j int) bool { return parts[i].shard < parts[j].shard })
	if event < 0 {
		return ProofResult{}, ErrUnknownEvent
	}
	idx := event
	for _, p := range parts {
		if idx < len(p.leaves) {
			pf, err := audit.Prove(p.leaves, idx)
			if err != nil {
				return ProofResult{}, err
			}
			pf.BatchID = batchID
			return ProofResult{
				BatchID: batchID, Event: event,
				Shard: p.shard, Seg: p.pos.seg, Off: p.pos.off,
				Root: p.root, Proof: pf,
			}, nil
		}
		idx -= len(p.leaves)
	}
	return ProofResult{}, ErrUnknownEvent
}

// BatchEvents returns how many events batch batchID holds across all its
// parts (0, ErrUnknownBatch unless the index holds every one of them).
func (s *Server) BatchEvents(batchID uint64) (int, error) {
	parts, err := s.indexedParts(batchID)
	n := 0
	for _, p := range parts {
		n += len(p.leaves)
	}
	return n, err
}

// RankReceipt ranks [from, to] and logs a signed rank receipt into shard
// 0's audit stream: an ed25519-signed record binding the SHA-256 of the
// emitted ranked list (its JSON encoding) to the chain head at the
// moment of emission. The caller keeps the returned receipt; the offline
// verifier checks its signature and chain anchoring, and the caller can
// re-hash the list it was served to match ListHash.
func (s *Server) RankReceipt(ctx context.Context, from, to cert.Day) ([]acobe.Ranked, audit.Receipt, error) {
	ranked, _, rc, err := s.rankReceipt(ctx, from, to)
	return ranked, rc, err
}

// rankReceipt is RankReceipt that also returns the published state the
// list was served from (see rank).
func (s *Server) rankReceipt(ctx context.Context, from, to cert.Day) ([]acobe.Ranked, *published, audit.Receipt, error) {
	if !s.auditOn() {
		return nil, nil, audit.Receipt{}, ErrAuditDisabled
	}
	ranked, p, err := s.rank(ctx, from, to)
	if err != nil {
		return nil, nil, audit.Receipt{}, err
	}
	body, err := json.Marshal(ranked)
	if err != nil {
		return nil, nil, audit.Receipt{}, err
	}
	rc := &audit.Receipt{From: int64(from), To: int64(to), ListHash: audit.Head(sha256.Sum256(body))}
	done := make(chan error, 1)
	sh := s.shards[0]
	if err := s.send(ctx, sh.queue, envelope{isReceipt: true, rcpt: rc, done: done}, sh.stats); err != nil {
		return nil, nil, audit.Receipt{}, err
	}
	select {
	case err := <-done:
		if err != nil {
			return nil, nil, audit.Receipt{}, err
		}
	case <-ctx.Done():
		return nil, nil, audit.Receipt{}, ctx.Err()
	}
	return ranked, p, *rc, nil
}

// shardReceipt appends one signed receipt on the shard goroutine. The
// sign callback runs inside appendReceipt after any rotation settled the
// chain head the receipt anchors to. Receipts are synced like barriers:
// the point of a receipt is surviving scrutiny later.
func (s *Server) shardReceipt(sh *shard, rc *audit.Receipt) error {
	if err := s.persistErr(); err != nil {
		return err
	}
	if err := sh.wal.appendReceipt(rc, func(r *audit.Receipt) { r.Sign(s.auditPriv) }); err != nil {
		return s.failPersist(err)
	}
	if s.pcfg.Fsync != FsyncNever {
		if err := sh.wal.sync(); err != nil {
			return s.failPersist(err)
		}
	}
	return nil
}
