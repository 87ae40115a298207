package serve

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"os"
	"path/filepath"
	"reflect"
	"runtime"
	"strings"
	"testing"

	"acobe/internal/audit"
	"acobe/internal/cert"
	"acobe/internal/persist"
	"acobe/internal/testkit"
	"acobe/pkg/acobe"
)

// spanCfg is shardPersistCfg over users that land on every shard (the
// fixture testUsers all hash onto one shard of three), two per shard.
func spanCfg(t *testing.T, shards int) Config {
	t.Helper()
	cfg := shardPersistCfg(shards)
	cfg.Users = spanningUsers(t, shards, 2)
	cfg.Membership = make([]int, len(cfg.Users))
	for u := range cfg.Membership {
		cfg.Membership[u] = u % len(cfg.Groups)
	}
	return cfg
}

// twoGenerations writes a directory holding snapshot generations at days
// 4 and 9 and a WAL tail through day 11, shuts the server down cleanly and
// returns it (stopped: its state and configuration stay usable).
func twoGenerations(t *testing.T, cfg Config) (*Server, PersistConfig) {
	t.Helper()
	pc := PersistConfig{Dir: t.TempDir(), SnapshotEvery: 5}
	srv, _, err := Open(cfg, pc)
	if err != nil {
		t.Fatal(err)
	}
	if err := feedUserDays(srv, 0, 11); err != nil {
		t.Fatal(err)
	}
	shutdown(t, srv)
	return srv, pc
}

// allocatedBy runs f and returns the bytes it allocated.
func allocatedBy(f func()) uint64 {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	f()
	runtime.ReadMemStats(&after)
	return after.TotalAlloc - before.TotalAlloc
}

// TestSnapshotDamageFailsBounded damages a real snapshot every way a disk
// or an editor can — a bit flipped, the file cut short, bytes appended
// after the last field. Every damaged image must fail to load, and no load
// may allocate more than a small multiple of the file: the checksum sits
// at the end, so a length prefix is checked against the bytes the file
// still holds before anything is allocated for it. Flips and cuts visit
// every byte of the file's head (header, user and feature lists) and tail
// (buffered events, trailer, checksum, signature) and every seventh byte
// between, where the file is series after series of an 8-byte prefix and
// a few dozen floats: a stride coprime to every series length lands on
// each byte of a prefix within a few series. The same file in the retired
// plain form (audit=false) fails to load pristine or damaged, as bounded.
func TestSnapshotDamageFailsBounded(t *testing.T) {
	for _, plain := range []bool{true, false} {
		t.Run(fmt.Sprintf("audit=%v", !plain), func(t *testing.T) {
			srv, pc := twoGenerations(t, spanCfg(t, 1))
			if plain {
				plainSnapshots(t, pc.Dir)
			}
			good, err := os.ReadFile(snapPath(pc.Dir, snapShardPrefix(0), 9))
			if err != nil {
				t.Fatal(err)
			}
			load := func(img []byte) (err error, allocated uint64) {
				fresh, cerr := newCore(srv.cfg)
				if cerr != nil {
					t.Fatal(cerr)
				}
				srv.adoptCore(fresh)
				srv.sigma.Reserve(9)
				allocated = allocatedBy(func() {
					_, err = readSnapshot(newSnapStream(bytes.NewReader(img), int64(len(img))), srv.auditPub(), func(cr *snapStream) error {
						return srv.decodeSnapshot(cr, srv.shards[0])
					})
				})
				return err, allocated
			}
			err, _ = load(good)
			if plain && (err == nil || !strings.Contains(err.Error(), "snapshot version 3 unsupported")) {
				t.Fatalf("plain snapshot: %v, want its version refused", err)
			}
			if !plain && err != nil {
				t.Fatalf("pristine snapshot does not load: %v", err)
			}
			// One block, the restored state (a few times the file: tables
			// grow by doubling, first-seen sets are maps) and slack for the
			// runtime's own bookkeeping.
			bound := uint64(snapBlock + 8*len(good) + 128<<10)
			var offsets []int
			for off := 0; off < len(good); off++ {
				if off < 1024 || off >= len(good)-256 || off%7 == 0 {
					offsets = append(offsets, off)
				}
			}
			img := append([]byte(nil), good...)
			for _, off := range offsets {
				img[off] ^= 0x01
				err, n := load(img)
				img[off] ^= 0x01
				if err == nil {
					t.Fatalf("bit flipped at offset %d of %d went undetected", off, len(img))
				}
				if n > bound {
					t.Fatalf("bit flipped at offset %d: the failed load allocated %d bytes for a %d-byte file (bound %d): %v", off, n, len(img), bound, err)
				}
			}
			for _, cut := range offsets {
				if err, n := load(good[:cut]); err == nil || n > bound {
					t.Fatalf("file cut to %d of %d bytes: err %v, %d bytes allocated", cut, len(good), err, n)
				}
			}
			for _, extra := range [][]byte{{0}, bytes.Repeat([]byte{0xa5}, 64), good} {
				err, n := load(append(append([]byte(nil), good...), extra...))
				if err == nil || (!plain && !strings.Contains(err.Error(), "trailing bytes")) || n > bound {
					t.Fatalf("%d bytes appended: err %v, %d bytes allocated", len(extra), err, n)
				}
			}
		})
	}
}

// TestVerifySnapshotBoundedMemory: the offline verifier streams a snapshot
// through one block and holds none of it: checking a file of more than
// eight blocks allocates less than two blocks and a small constant.
func TestVerifySnapshotBoundedMemory(t *testing.T) {
	const users, days = 800, 12
	pc := PersistConfig{Dir: t.TempDir(), SnapshotEvery: days}
	srv, _, err := Open(benchSnapCfg(users, 1), pc)
	if err != nil {
		t.Fatal(err)
	}
	if err := feedUserDays(srv, 0, days-1); err != nil {
		t.Fatal(err)
	}
	shutdown(t, srv)
	path := snapPath(pc.Dir, snapShardPrefix(0), days-1)
	st, err := os.Stat(path)
	if err != nil {
		t.Fatal(err)
	}
	if st.Size() < 8*snapBlock {
		t.Fatalf("the snapshot is %d bytes, want at least %d", st.Size(), 8*snapBlock)
	}
	var h snapHeader
	n := allocatedBy(func() { h, err = readSnapshotFile(path, srv.auditPub(), drainState) })
	if err != nil || h.day != days-1 {
		t.Fatalf("verify: header %+v, %v", h, err)
	}
	if bound := uint64(2*snapBlock + 64<<10); n >= bound {
		t.Fatalf("verifying a %d-byte snapshot allocated %d bytes, bound %d", st.Size(), n, bound)
	}
	t.Logf("verified %d bytes with %d bytes allocated", st.Size(), n)
}

// TestSnapshotCorruptPrefixFallsBack: one bit flipped in a length prefix
// of the newest snapshot — the first user ID now claims to be a quarter of
// a gigabyte long — costs the open a generation, not its memory: recovery
// falls back to the older cut, replays the longer tail and reaches the
// uninterrupted run's state; with the older generation damaged the same
// way the open fails, naming both files.
func TestSnapshotCorruptPrefixFallsBack(t *testing.T) {
	for _, shards := range []int{1, 3} {
		t.Run(fmt.Sprintf("shards=%d", shards), func(t *testing.T) {
			cfg := spanCfg(t, shards)
			_, pc := twoGenerations(t, cfg)
			// The header, ingested, late, the user count; then the first
			// user ID's length, whose fourth byte gets 0x0f.
			var hdr bytes.Buffer
			snapHeader{}.encode(persist.NewWriter(&hdr))
			flip := testkit.Tamper{Off: int64(hdr.Len()) + 8 + 8 + 8 + 3, Mask: 0x0f}
			victim := snapPath(pc.Dir, snapShardPrefix(shards-1), 9)
			if err := flip.ApplyTo(victim); err != nil {
				t.Fatal(err)
			}
			var b *Server
			var info *RecoverInfo
			var err error
			if n := allocatedBy(func() { b, info, err = Open(cfg, pc) }); err != nil || n > 32<<20 {
				t.Fatalf("open over a flipped prefix: err %v, %d bytes allocated", err, n)
			}
			if !info.SnapshotLoaded || info.SnapshotDay != 4 || info.ClosedThrough != 11 {
				t.Fatalf("recovered %+v, want the day-4 generation and a cut at 11", info)
			}
			want, _, rerr := Open(cfg, PersistConfig{Dir: t.TempDir()})
			if rerr != nil {
				t.Fatal(rerr)
			}
			if err := feedUserDays(want, 0, 11); err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(shardStateBytes(t, b), shardStateBytes(t, want)) {
				t.Fatal("fallback recovery differs from the uninterrupted run")
			}
			shutdown(t, want)
			shutdown(t, b)

			older := snapPath(pc.Dir, snapShardPrefix(shards-1), 4)
			if err := flip.ApplyTo(older); err != nil {
				t.Fatal(err)
			}
			_, _, err = Open(cfg, pc)
			if err == nil || !errors.Is(err, persist.ErrCorrupt) ||
				!strings.Contains(err.Error(), filepath.Base(victim)) || !strings.Contains(err.Error(), filepath.Base(older)) {
				t.Fatalf("open with both generations damaged: %v", err)
			}
		})
	}
}

// TestSnapshotTornThroughBuffer tears a snapshot's write at the
// three places the block buffer creates — inside the buffered body, after
// the body's last flush with the checksum still to come, and between
// checksum and signature — on one shard while its siblings publish. The
// torn .tmp is never renamed and recovery ignores it, the round's manifest
// is never written so the previous generation stays authoritative, and the
// resumed server reaches the uninterrupted run's state.
func TestSnapshotTornThroughBuffer(t *testing.T) {
	const lastDay = cert.Day(12)
	for _, shards := range []int{1, 3} {
		cfg := spanCfg(t, shards)
		victim := shards - 1
		name := filepath.Base(snapPath("", snapShardPrefix(victim), 9))
		_, clean := twoGenerations(t, cfg)
		st, err := os.Stat(filepath.Join(clean.Dir, name))
		if err != nil {
			t.Fatal(err)
		}
		size := st.Size()
		ref, _, err := Open(cfg, PersistConfig{Dir: t.TempDir()})
		if err != nil {
			t.Fatal(err)
		}
		if err := feedUserDays(ref, 0, lastDay); err != nil {
			t.Fatal(err)
		}
		want := shardStateBytes(t, ref)
		shutdown(t, ref)

		for _, c := range []struct {
			name   string
			budget int64
		}{
			{"inside the buffered body", size / 2},
			{"between the last flush and the checksum", size - 4 - 64},
			{"between checksum and signature", size - 64},
		} {
			t.Run(fmt.Sprintf("shards=%d/%s", shards, c.name), func(t *testing.T) {
				plan := &testkit.FaultPlan{Name: name, Op: "write", After: c.budget}
				pc := PersistConfig{
					Dir: t.TempDir(), SnapshotEvery: 5,
					Hooks: Hooks{
						WrapWriter: func(name string, f WritableFile) WritableFile { return plan.WrapWriter(name, f) },
						BeforeOp:   plan.BeforeOp,
					},
				}
				a, _, err := Open(cfg, pc)
				if err != nil {
					t.Fatal(err)
				}
				if err := feedUserDays(a, 0, lastDay); !errors.Is(err, ErrPersistenceFailed) || !plan.Tripped() {
					t.Fatalf("the snapshot fault did not fail-stop the server: %v (tripped %v)", err, plan.Tripped())
				}
				shutdown(t, a)
				torn, err := os.Stat(filepath.Join(pc.Dir, name+".tmp"))
				if err != nil || torn.Size() != c.budget {
					t.Fatalf("torn .tmp: %v, size %d, want %d", err, torn.Size(), c.budget)
				}
				if _, err := os.Stat(filepath.Join(pc.Dir, name)); err == nil {
					t.Fatal("the torn snapshot was published")
				}
				if _, err := os.Stat(manifestPath(pc.Dir, 9)); err == nil {
					t.Fatal("a manifest pins the round whose snapshot tore")
				}

				pc.Hooks = Hooks{}
				b, info, err := Open(cfg, pc)
				if err != nil {
					t.Fatal(err)
				}
				if !info.SnapshotLoaded || info.SnapshotDay != 4 || info.ClosedThrough != 9 {
					t.Fatalf("recovered %+v, want the day-4 generation and the logged close of day 9", info)
				}
				if err := feedUserDays(b, 10, lastDay); err != nil {
					t.Fatal(err)
				}
				if !bytes.Equal(shardStateBytes(t, b), want) {
					t.Fatal("resumed state differs from the uninterrupted run")
				}
				verifyAfterShutdown(t, b)
			})
		}
	}
}

// serially is the per-shard loop recovery ran before perShard replaced it,
// kept as the reference the parallel recovery is compared against.
func serially(n int, body func(k int)) {
	for k := 0; k < n; k++ {
		body(k)
	}
}

// TestRecoverParallelMatchesSerial recovers copies of one
// directory — two snapshot generations, a WAL tail, every shard populated —
// twenty times through the per-shard goroutines and compares each to the
// serial loop's recovery of the same directory: state bytes, proof index
// and RecoverInfo must not depend on how the shards' work interleaves. Run
// under -race it is also the check that the shards' snapshot loads, walks
// and replays share nothing unsynchronized.
func TestRecoverParallelMatchesSerial(t *testing.T) {
	type outcome struct {
		state []byte
		index string
		info  RecoverInfo
	}
	for _, shards := range []int{3, 8} {
		t.Run(fmt.Sprintf("shards=%d", shards), func(t *testing.T) {
			cfg := spanCfg(t, shards)
			_, fixture := twoGenerations(t, cfg)
			recoverCopy := func(fan func(int, func(int))) outcome {
				pc := fixture
				pc.Dir = t.TempDir()
				if err := testkit.CopyTree(fixture.Dir, pc.Dir); err != nil {
					t.Fatal(err)
				}
				s, info, err := open(cfg, pc, fan)
				if err != nil {
					t.Fatal(err)
				}
				defer shutdown(t, s)
				o := outcome{state: shardStateBytes(t, s), info: *info}
				o.info.SnapshotLoadSeconds, o.info.WalkSeconds, o.info.ReplaySeconds, o.info.PublishSeconds = 0, 0, 0, 0
				for id := uint64(0); id <= s.nextBatch.Load(); id++ {
					if parts, ok := s.auditIdx[id]; ok {
						o.index += fmt.Sprintf("%d:%v\n", id, parts)
					}
				}
				return o
			}
			want := recoverCopy(serially)
			if !want.info.SnapshotLoaded || want.info.ReplayedEvents == 0 || want.index == "" {
				t.Fatalf("the reference recovery exercised nothing: %+v", want.info)
			}
			for i := 0; i < 20; i++ {
				got := recoverCopy(perShard)
				if !bytes.Equal(got.state, want.state) {
					t.Fatalf("run %d: state differs from the serial recovery", i)
				}
				if got.index != want.index {
					t.Fatalf("run %d: proof index differs from the serial recovery", i)
				}
				if !reflect.DeepEqual(got.info, want.info) {
					t.Fatalf("run %d: RecoverInfo %+v, serial %+v", i, got.info, want.info)
				}
			}
		})
	}
}

// resealSnapshot rewrites a published snapshot with edit applied to its
// body, then recomputes the checksum and signs it again with the
// directory's key: a file the writer could have produced but for what edit
// changed.
func resealSnapshot(t *testing.T, s *Server, path string, edit func(body []byte)) {
	t.Helper()
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	body := append([]byte(nil), data[:len(data)-4-audit.SigSize]...)
	edit(body)
	out := binary.LittleEndian.AppendUint32(body, crc32.ChecksumIEEE(body))
	digest := sha256.Sum256(out)
	sig := audit.SignContext(s.auditPriv, audit.ContextSnapshot, digest[:])
	out = append(out, sig[:]...)
	if err := os.WriteFile(path, out, 0o644); err != nil {
		t.Fatal(err)
	}
}

// TestSnapshotTableDayMismatchRefused: the windows a snapshot no longer
// stores were its one check that the table ends on the snapshot's day; a
// loaded table that ends elsewhere is refused as corrupt, naming the file.
// Here the header's day is moved back one and the file re-sealed: the open
// falls back a generation and reaches the uninterrupted run's state, and
// with the older generation moved the same way it fails, naming both. The
// two generations in the retired plain form are refused (audit=false).
func TestSnapshotTableDayMismatchRefused(t *testing.T) {
	for _, shards := range []int{1, 3} {
		t.Run(fmt.Sprintf("shards=%d", shards), func(t *testing.T) {
			cfg := spanCfg(t, shards)
			t.Run("audit=true", func(t *testing.T) {
				srv, pc := twoGenerations(t, cfg)
				dayBack := func(body []byte) {
					day := binary.LittleEndian.Uint64(body[8:16]) // after the magic and version
					binary.LittleEndian.PutUint64(body[8:16], day-1)
				}
				victim := snapPath(pc.Dir, snapShardPrefix(shards-1), 9)
				resealSnapshot(t, srv, victim, dayBack)
				b, info, err := Open(cfg, pc)
				if err != nil {
					t.Fatal(err)
				}
				if !info.SnapshotLoaded || info.SnapshotDay != 4 || info.ClosedThrough != 11 {
					t.Fatalf("recovered %+v, want the day-4 generation and a cut at 11", info)
				}
				want, err := New(cfg)
				if err != nil {
					t.Fatal(err)
				}
				feedDays(t, want, 0, 11)
				if !bytes.Equal(shardStateBytes(t, b), shardStateBytes(t, want)) {
					t.Fatal("fallback recovery differs from the uninterrupted run")
				}
				shutdown(t, want)
				// The offline verifier refuses the cut Open passed over.
				shutdown(t, b)
				_, err = VerifyAudit(pc.Dir, srv.auditPub())
				wantRefusal(t, "VerifyAudit", err, filepath.Base(victim), "snapshot day 8 does not match manifest")
				if !errors.Is(err, ErrAuditChainBroken) {
					t.Fatalf("refusal %v is not ErrAuditChainBroken", err)
				}

				older := snapPath(pc.Dir, snapShardPrefix(shards-1), 4)
				resealSnapshot(t, srv, older, dayBack)
				_, _, err = Open(cfg, pc)
				wantRefusal(t, "Open", err, filepath.Base(victim), filepath.Base(older), "snapshot table ends on day 9, not on the snapshot's day 8")
				if !errors.Is(err, persist.ErrCorrupt) {
					t.Fatalf("refusal %v is not persist.ErrCorrupt", err)
				}
				// The offline verifier refuses the directory Open refuses.
				_, err = VerifyAudit(pc.Dir, srv.auditPub())
				wantRefusal(t, "VerifyAudit", err, filepath.Base(victim), filepath.Base(older), "snapshot day 8 does not match manifest")
				if !errors.Is(err, ErrAuditChainBroken) {
					t.Fatalf("refusal %v is not ErrAuditChainBroken", err)
				}
			})
			plainFormRefused(t, cfg, func(t *testing.T) PersistConfig {
				_, pc := twoGenerations(t, cfg)
				return pc
			})
		})
	}
}

// TestReopenUnderNewDeviationConfig: a snapshot holds measurements, not
// what is derived from them, so a directory is not tied to the groups or
// the ω it was written under. One written under ω = 7 with department
// groups reopens under ω = 5 with none and serves what a server that ran
// under the new configuration from the start serves: the same state, every
// σ bit included, and the same ranked list from the same retrain. The
// aspects stay: their features are the table's columns, and a snapshot
// over other columns is refused by name (TestDefaultTableFollowsAspects).
// The same directory in the retired plain form is refused under the new
// configuration (audit=false).
func TestReopenUnderNewDeviationConfig(t *testing.T) {
	const lastDay = cert.Day(12)
	for _, shards := range []int{1, 3} {
		t.Run(fmt.Sprintf("shards=%d", shards), func(t *testing.T) {
			written := shardPersistCfg(shards)
			written.Users = spanningUsers(t, shards, 4)
			written.Membership = make([]int, len(written.Users))
			for u := range written.Membership {
				written.Membership[u] = u % len(written.Groups)
			}
			written.Deviation.Window = 7
			written.DetectorOptions = openDayDetOpts()
			reopened := written
			reopened.Groups, reopened.Membership = nil, nil
			reopened.Deviation.Window = 5
			reopened.DetectorOptions = openDayDetOpts()
			write := func(t *testing.T) PersistConfig {
				pc := PersistConfig{Dir: t.TempDir(), SnapshotEvery: 5}
				a, _, err := Open(written, pc)
				if err != nil {
					t.Fatal(err)
				}
				feedDays(t, a, 0, lastDay) // cuts at days 4 and 9, a tail behind
				shutdown(t, a)
				return pc
			}
			t.Run("audit=true", func(t *testing.T) {
				ctx := context.Background()
				b, info, err := Open(reopened, write(t))
				if err != nil {
					t.Fatal(err)
				}
				if !info.SnapshotLoaded || info.SnapshotDay != 9 || info.ClosedThrough != lastDay {
					t.Fatalf("recovered %+v, want the day-9 generation and a cut at %v", info, lastDay)
				}
				ref, err := New(reopened)
				if err != nil {
					t.Fatal(err)
				}
				defer shutdown(t, ref)
				feedDays(t, ref, 0, lastDay)
				if !bytes.Equal(shardStateBytes(t, b), shardStateBytes(t, ref)) {
					t.Fatal("state reopened under the new configuration differs from a run under it")
				}
				var lists [2][]acobe.Ranked
				for i, s := range []*Server{b, ref} {
					if err := s.Retrain(ctx, 0, 10, true); err != nil {
						t.Fatal(err)
					}
					if lists[i], err = s.Rank(ctx, 8, lastDay); err != nil {
						t.Fatal(err)
					}
				}
				if len(lists[0]) != len(reopened.Users) || !reflect.DeepEqual(lists[0], lists[1]) {
					t.Fatalf("reopened rank %+v, fresh run's %+v", lists[0], lists[1])
				}
				verifyAfterShutdown(t, b)
			})
			plainFormRefused(t, reopened, write)
		})
	}
}
