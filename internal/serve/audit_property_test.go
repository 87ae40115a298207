package serve

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"testing"
	"time"

	"acobe/internal/audit"
	"acobe/internal/cert"
)

// Property tests over the inclusion-proof pipeline: randomized CERT
// ingest at several shard widths, then for every acknowledged batch the
// retained log still holds whole the proof must verify and every mutation
// of it must not — live and after a restart's recovery alike. Snapshot
// pruning may legitimately forget a prefix (the segments are small enough
// here that it does); it never punches holes, and a cross-shard batch
// that lost one part to it is unknown, never answered from the rest.

// randDayEvents builds a randomized batch of valid CERT events inside day
// d: random users, random activity mix, one to eight events.
func randDayEvents(rng *rand.Rand, users []string, d cert.Day) []Event {
	n := 1 + rng.Intn(8)
	evs := make([]Event, 0, n)
	at := func() time.Time { return d.Date().Add(time.Duration(1+rng.Intn(22)) * time.Hour) }
	for len(evs) < n {
		u := users[rng.Intn(len(users))]
		switch rng.Intn(4) {
		case 0:
			evs = append(evs, Event{Cert: &cert.Event{Type: cert.EventLogon, Time: at(), User: u, Activity: cert.ActLogon}})
		case 1:
			evs = append(evs, Event{Cert: &cert.Event{Type: cert.EventDevice, Time: at(), User: u, PC: fmt.Sprintf("PC-%d", rng.Intn(6)), Activity: cert.ActConnect}})
		case 2:
			evs = append(evs, Event{Cert: &cert.Event{Type: cert.EventFile, Time: at(), User: u, Activity: cert.ActFileOpen, Direction: cert.DirLocal, FileID: fmt.Sprintf("F%d", rng.Intn(9))}})
		default:
			evs = append(evs, Event{Cert: &cert.Event{Type: cert.EventHTTP, Time: at(), User: u, Activity: cert.ActUpload, FileType: "doc", Domain: fmt.Sprintf("d%d.com", rng.Intn(3))}})
		}
	}
	return evs
}

func TestAuditProofPropertyRandomized(t *testing.T) {
	for _, shards := range []int{1, 3, 8} {
		shards := shards
		t.Run(fmt.Sprintf("shards=%d", shards), func(t *testing.T) {
			rng := rand.New(rand.NewSource(0xACB0 + int64(shards)))
			ctx := context.Background()
			// Users on every shard (the fixture's testUsers share one shard
			// of three), so most batches are cross-shard.
			cfg := persistCfg()
			cfg.Shards, cfg.Users = shards, spanningUsers(t, shards, 2)
			cfg.Membership = make([]int, len(cfg.Users))
			for i := range cfg.Membership {
				cfg.Membership[i] = i % len(cfg.Groups)
			}
			p := auditPersist()
			p.Dir, p.SnapshotEvery, p.SegmentBytes = t.TempDir(), 4, 512
			s, _, err := Open(cfg, p)
			if err != nil {
				t.Fatal(err)
			}

			var ids []uint64
			var counts []int
			var otherRoots []ProofResult
			for d := cert.Day(0); d <= 11; d++ {
				for b := 0; b < 1+rng.Intn(3); b++ {
					evs := randDayEvents(rng, cfg.Users, d)
					id, err := s.SubmitProvable(ctx, evs)
					if err != nil {
						t.Fatalf("day %d batch %d: %v", d, b, err)
					}
					ids, counts = append(ids, id), append(counts, len(evs))
				}
				if err := s.CloseDay(ctx, d); err != nil {
					t.Fatalf("close day %d: %v", d, err)
				}
			}

			// The live index holds exactly the batches the prunes left
			// whole, each with every event it was submitted with.
			if assertProvableSuffix(t, s, ids, counts) == 0 {
				t.Fatal("no batch was pruned from the live proof index — shrink SegmentBytes")
			}
			// Every one of them proves at random event indices; every
			// mutation of a verifying proof fails.
			for _, id := range ids {
				n, err := s.BatchEvents(id)
				if errors.Is(err, ErrUnknownBatch) {
					continue
				}
				if err != nil {
					t.Fatalf("batch %d: %v", id, err)
				}
				probes := []int{0, n - 1}
				if n > 2 {
					probes = append(probes, 1+rng.Intn(n-2))
				}
				for _, ev := range probes {
					res, err := s.Proof(id, ev)
					if err != nil {
						t.Fatalf("proof(%d, %d): %v", id, ev, err)
					}
					verifyProof(t, res)
					assertProofMutationsFail(t, rng, res)
					if len(otherRoots) > 0 {
						// Cross-batch confusion: a proof must not verify
						// against another batch's root.
						or := otherRoots[rng.Intn(len(otherRoots))]
						if or.Root != res.Root && res.Proof.Verify(or.Root) {
							t.Fatalf("proof for batch %d verified against batch %d's root", id, or.BatchID)
						}
					}
				}
				res0, err := s.Proof(id, 0)
				if err == nil {
					otherRoots = append(otherRoots, res0)
				}
			}

			pub := s.auditPub()
			shutdown(t, s)
			if _, err := VerifyAudit(p.Dir, pub); err != nil {
				t.Fatalf("offline verify: %v", err)
			}

			// Proofs survive restart + recovery, tolerating a pruned prefix.
			s2, _, err := Open(cfg, p)
			if err != nil {
				t.Fatal(err)
			}
			assertProvableSuffix(t, s2, ids, counts)
			shutdown(t, s2)
		})
	}
}

// assertProofMutationsFail applies every adversarial proof edit — wrong
// leaf, wrong root, truncated path, extended path, sibling hash flip,
// sibling order swap, side-bit flip — and requires each to fail
// verification.
func assertProofMutationsFail(t *testing.T, rng *rand.Rand, res ProofResult) {
	t.Helper()
	fail := func(what string, p audit.Proof, root audit.Head) {
		t.Helper()
		if p.Verify(root) {
			t.Fatalf("batch %d event %d: %s still verifies", res.BatchID, res.Event, what)
		}
	}
	clone := func() audit.Proof {
		p := res.Proof
		p.Path = append([]audit.ProofStep(nil), res.Proof.Path...)
		return p
	}

	p := clone()
	p.Leaf[rng.Intn(audit.HeadSize)] ^= 1 << rng.Intn(8)
	fail("wrong leaf", p, res.Root)

	root := res.Root
	root[rng.Intn(audit.HeadSize)] ^= 1 << rng.Intn(8)
	fail("wrong root", clone(), root)

	if len(res.Proof.Path) > 0 {
		p = clone()
		p.Path = p.Path[:len(p.Path)-1]
		fail("truncated path", p, res.Root)

		i := rng.Intn(len(res.Proof.Path))
		p = clone()
		p.Path[i].Hash[rng.Intn(audit.HeadSize)] ^= 1 << rng.Intn(8)
		fail("flipped sibling hash", p, res.Root)

		p = clone()
		p.Path[i].Left = !p.Path[i].Left
		fail("flipped sibling side", p, res.Root)
	}
	if len(res.Proof.Path) > 1 {
		p = clone()
		p.Path[0], p.Path[1] = p.Path[1], p.Path[0]
		fail("swapped siblings", p, res.Root)
	}
	p = clone()
	p.Path = append(p.Path, audit.ProofStep{Left: rng.Intn(2) == 0, Hash: res.Root})
	fail("extended path", p, res.Root)
}
