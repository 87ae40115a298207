package serve

import (
	"crypto/ed25519"
	"errors"
	"fmt"
	"path/filepath"

	"acobe/internal/audit"
)

// ErrAuditChainBroken reports a verified audit failure: some sealed byte
// of the log (a WAL frame, a seal, a segment header link, a snapshot, or
// a manifest) no longer matches the hash chain or a signature over it.
// Distinct from ErrPersistenceFailed (an I/O failure writing new state):
// a broken chain means the *history* cannot be trusted, and the server
// fail-stops at recovery rather than serve state the log contradicts.
var ErrAuditChainBroken = errors.New("serve: audit chain broken")

// VerifyReport summarizes one offline VerifyAudit walk.
type VerifyReport struct {
	Fingerprint string
	Shards      int
	Segments    int
	Frames      int
	Batches     int
	Events      int
	Seals       int
	Receipts    int
	Snapshots   int
	Manifests   int
}

// VerifyAudit walks a data directory offline and verifies the
// full tamper-evidence chain: every shard's WAL stream (frame CRCs,
// chain folds, recomputed batch Merkle roots, seals, header links,
// receipt signatures and anchoring), every published snapshot's CRC,
// ed25519 signature, and attested chain head, and every manifest's
// signature and per-shard heads. The shard count is autodetected from the
// files present. It stops at the first divergence with a segment/offset
// diagnostic wrapping ErrAuditChainBroken.
//
// Run it against a cleanly shut-down (or freshly recovered) directory:
// a crash's torn tail is unverifiable trailing garbage to the strict
// walk, and recovery is what truncates it.
func VerifyAudit(dir string, pub ed25519.PublicKey) (*VerifyReport, error) {
	rep := &VerifyReport{Fingerprint: audit.Fingerprint(pub)}
	walDir := filepath.Join(dir, "wal")

	// The cuts, under the rules Open loads by, with the shard count the
	// directory pins; any damage is a refusal, and every snapshot's
	// attested head becomes a check on its shard's walk.
	cuts, err := scanCuts(dir, cutPolicy{
		pub: pub, strict: true, fan: perShard,
		read: func(_ int, path string) (snapHeader, error) { return readSnapshotFile(path, pub, drainState) },
	})
	if err != nil {
		if !errors.Is(err, ErrAuditChainBroken) {
			err = fmt.Errorf("%w: %w", ErrAuditChainBroken, err)
		}
		return nil, err
	}
	rep.Shards, rep.Manifests = len(cuts.checks), cuts.manifests

	// The WAL streams themselves.
	for si := range cuts.checks {
		rep.Snapshots += len(cuts.checks[si])
		prefix := walShardPrefix(si)
		end, err := walkStream(walDir, prefix, walkOpts{strict: true, checks: cuts.checks[si]}, func(f *walkedFrame) error {
			rep.Frames++
			switch f.rec.typ {
			case recEventsPart:
				rep.Batches++
				rep.Events += len(f.rec.events)
			case recSeal:
				rep.Seals++
			case recReceipt:
				if !f.rec.receipt.VerifySig(pub) {
					return fmt.Errorf("%w: %s offset %d: receipt signature invalid", ErrAuditChainBroken, filepath.Base(walSegPath(walDir, prefix, f.pos.seg)), f.pos.off)
				}
				rep.Receipts++
			}
			return nil
		})
		if err != nil {
			return nil, err
		}
		rep.Segments += end.segments
	}
	return rep, nil
}
