package serve

import (
	"bytes"
	"context"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"sync"
	"testing"

	"acobe/internal/audit"
	"acobe/internal/cert"
	"acobe/internal/logstore"
)

// These tests pin the persistence layer's guard rails: input problems
// (wrong payload type, oversized batch) must be plain per-batch
// rejections that never reach the WAL, while apply failures behind a
// logged barrier must fail-stop — and recovery must refuse to replay
// around missing history rather than silently rebuild wrong state.

// recordEvent is an enterprise-payload event, which the CERT ingestor of
// persistCfg can never consume.
func recordEvent(d cert.Day) Event {
	return Event{Record: &logstore.Record{Time: d.Date(), User: testUsers[0], Action: "Logon"}}
}

func TestSubmitRejectsMismatchedPayload(t *testing.T) {
	dir := t.TempDir()
	ctx := context.Background()
	a, _, err := Open(persistCfg(), PersistConfig{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	err = a.Submit(ctx, []Event{recordEvent(0)})
	if err == nil {
		t.Fatal("submit of an unconsumable payload succeeded")
	}
	if errors.Is(err, ErrPersistenceFailed) {
		t.Fatalf("payload rejection latched the server: %v", err)
	}
	// The bad batch never reached the WAL; the server keeps working and a
	// restart recovers exactly the good prefix.
	feedDays(t, a, 0, 5)
	want := serverStateBytes(t, a)
	shutdown(t, a)

	b, info, err := Open(persistCfg(), PersistConfig{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	defer shutdown(t, b)
	if info.ClosedThrough != 5 {
		t.Fatalf("recovered ClosedThrough=%v, want 5", info.ClosedThrough)
	}
	if got := serverStateBytes(t, b); !bytes.Equal(got, want) {
		t.Fatal("recovered state differs from pre-shutdown state")
	}
}

// TestRecoverRefusesUnconsumablePayload: Submit vets every event before it
// is logged, so a logged event the ingestor cannot consume is a form no
// current writer produces. Recovery refuses it, naming the segment and the
// frame's offset, rather than drop it and serve around it.
func TestRecoverRefusesUnconsumablePayload(t *testing.T) {
	dir := t.TempDir()
	a, _, err := Open(persistCfg(), PersistConfig{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	feedDays(t, a, 0, 5)
	shutdown(t, a)

	// Forge a frame holding an enterprise record at the end of the CERT
	// server's log.
	walDir := filepath.Join(dir, "wal")
	segs, err := listSegments(walDir, walShardPrefix(0))
	if err != nil || len(segs) == 0 {
		t.Fatalf("no WAL segments (%v)", err)
	}
	last := segs[len(segs)-1].path
	fi, err := os.Stat(last)
	if err != nil {
		t.Fatal(err)
	}
	// A one-part batch under the next ID the server would have issued.
	payload, _, err := encodePartPayload(a.nextBatch.Load()+1, 1, []Event{recordEvent(6)})
	if err != nil {
		t.Fatal(err)
	}
	f, err := os.OpenFile(last, os.O_WRONLY|os.O_APPEND, 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.Write(encodeFrame(payload)); err != nil {
		t.Fatal(err)
	}
	f.Close()

	_, _, err = Open(persistCfg(), PersistConfig{Dir: dir})
	wantRefusal(t, "Open", err, fmt.Sprintf("%s offset %d:", filepath.Base(last), fi.Size()))
	if !errors.Is(err, ErrPayloadRejected) {
		t.Fatalf("refusal %v does not wrap ErrPayloadRejected", err)
	}
}

// TestReplayBuffersLikeLive: the same batch — one event of an already
// closed day, one of an open day — moves a shard's counters and open-day
// state identically whether it arrives through Submit or sits in a
// replayed WAL frame. (The server filters late events before logging, so
// the frame is forged; replay tolerates it through the live path's own
// late filter and shard.apply rather than a copy of them.)
func TestReplayBuffersLikeLive(t *testing.T) {
	ctx := context.Background()
	batch := []Event{persistDayEvents(3)[0], persistDayEvents(6)[0]}
	type counts struct{ ingested, late int64 }
	read := func(s *Server) counts {
		return counts{s.shards[0].ingested.Load(), s.shards[0].late.Load()}
	}
	moved := func(after, before counts) counts {
		return counts{after.ingested - before.ingested, after.late - before.late}
	}

	live, _, err := Open(persistCfg(), PersistConfig{Dir: t.TempDir()})
	if err != nil {
		t.Fatal(err)
	}
	feedDays(t, live, 0, 5)
	before := read(live)
	if err := live.Submit(ctx, batch); err != nil {
		t.Fatal(err)
	}
	want := moved(read(live), before)
	shutdown(t, live)
	if open := live.shards[0].ing.OpenDays(); want != (counts{ingested: 1, late: 1}) || len(open) != 1 || open[6] != 1 {
		t.Fatalf("live path: moved %+v with open days %v, want {1 1} and one event for day 6", want, open)
	}

	dir := t.TempDir()
	a, _, err := Open(persistCfg(), PersistConfig{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	feedDays(t, a, 0, 5)
	before = read(a)
	shutdown(t, a)
	segs, err := listSegments(filepath.Join(dir, "wal"), walShardPrefix(0))
	if err != nil || len(segs) == 0 {
		t.Fatalf("no WAL segments (%v)", err)
	}
	payload, _, err := encodePartPayload(a.nextBatch.Load()+1, 1, batch)
	if err != nil {
		t.Fatal(err)
	}
	f, err := os.OpenFile(segs[len(segs)-1].path, os.O_WRONLY|os.O_APPEND, 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.Write(encodeFrame(payload)); err != nil {
		t.Fatal(err)
	}
	f.Close()

	b, info, err := Open(persistCfg(), PersistConfig{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	defer shutdown(t, b)
	if got := moved(read(b), before); got != want {
		t.Errorf("replayed frame moved %+v, live Submit moved %+v", got, want)
	}
	if len(info.BufferedEvents) != 1 || info.BufferedEvents[6] != 1 {
		t.Errorf("replay buffered %v, want one event for day 6", info.BufferedEvents)
	}
}

// wantRefusal fails t unless err is a refusal naming every string in want.
func wantRefusal(t *testing.T, what string, err error, want ...string) {
	t.Helper()
	if err == nil {
		t.Fatalf("%s accepted the directory, want a refusal naming %q", what, want)
	}
	for _, w := range want {
		if !strings.Contains(err.Error(), w) {
			t.Fatalf("%s: %v\nwant the refusal to name %q", what, err, w)
		}
	}
}

// refuses requires Open and VerifyAudit to refuse pc.Dir with an error
// naming every string in want.
func refuses(t *testing.T, cfg Config, pc PersistConfig, want ...string) {
	t.Helper()
	s, _, err := Open(cfg, pc)
	if err == nil {
		shutdown(t, s)
	}
	wantRefusal(t, "Open", err, want...)
	pub, err := audit.LoadPublicKey(filepath.Join(pc.Dir, audit.PubFileName))
	if err != nil {
		t.Fatal(err)
	}
	_, err = VerifyAudit(pc.Dir, pub)
	wantRefusal(t, "VerifyAudit", err, want...)
}

// jsonOpenDay writes each open day the way snapshots held one before
// extraction moved to apply time: the day's events as a JSON array.
type jsonOpenDay struct{ *CERTIngestor }

func (jsonOpenDay) SaveOpenDay(w io.Writer, d cert.Day) error {
	arr, _, err := appendEventArray(nil, nil, persistDayEvents(d))
	if err == nil {
		_, err = w.Write(arr)
	}
	return err
}

// TestOpenRefusesRetiredForms: a segment, record, snapshot or manifest in a
// form no current writer emits is refused by name, never read and never
// dropped as a torn tail. Under audit=true: a whole-batch frame of the
// retired type 1 behind a cleanly closed stream, a snapshot whose open-day
// slot holds a JSON array, and snapshots of an earlier version. Under
// audit=false: each of those directories rewritten as a whole in the
// retired plain form, refused at its first retired file. And each plain
// artifact alone — a version-1 segment, a version-3 snapshot, a version-1
// manifest — refused by Open and VerifyAudit naming the file and version.
func TestOpenRefusesRetiredForms(t *testing.T) {
	for _, shards := range []int{1, 3} {
		for _, c := range []struct {
			name string
			run  func(t *testing.T, shards int) PersistConfig
		}{
			{"type-1-frame", refusesType1Frame},
			{"json-open-day", refusesJSONOpenDay},
			{"previous-version-snapshot", refusesPreviousVersionSnapshot},
		} {
			t.Run(fmt.Sprintf("shards=%d/audit=true/%s", shards, c.name), func(t *testing.T) { c.run(t, shards) })
			t.Run(fmt.Sprintf("shards=%d/audit=false/%s", shards, c.name), func(t *testing.T) {
				refusesPlainForm(t, shardPersistCfg(shards), c.run(t, shards))
			})
		}
		// A directory with a snapshot cut at day 1 and a WAL tail behind it
		// (snapEvery 2), or with no cut at all.
		written := func(t *testing.T, snapEvery int) PersistConfig {
			pc := PersistConfig{Dir: t.TempDir(), SnapshotEvery: snapEvery}
			a, _, err := Open(shardPersistCfg(shards), pc)
			if err != nil {
				t.Fatal(err)
			}
			feedDays(t, a, 0, 2)
			shutdown(t, a)
			return pc
		}
		t.Run(fmt.Sprintf("shards=%d/plain-segment", shards), func(t *testing.T) {
			pc := written(t, 30)
			plainSegments(t, pc.Dir)
			refuses(t, shardPersistCfg(shards), pc,
				filepath.Base(walSegPath("", walShardPrefix(0), 1)), "segment version 1 unsupported")
		})
		t.Run(fmt.Sprintf("shards=%d/v3-snapshot", shards), func(t *testing.T) {
			pc := written(t, 2)
			plainSnapshots(t, pc.Dir)
			refuses(t, shardPersistCfg(shards), pc,
				filepath.Base(snapPath("", snapShardPrefix(0), 1)), "snapshot version 3 unsupported")
		})
		t.Run(fmt.Sprintf("shards=%d/v1-manifest", shards), func(t *testing.T) {
			pc := written(t, 2)
			plainManifests(t, pc.Dir)
			refuses(t, shardPersistCfg(shards), pc,
				filepath.Base(manifestPath("", 1)), "manifest version 1 unsupported")
		})
	}
}

// refusesType1Frame appends a whole-batch frame of the retired type 1 — the
// unsharded server's record — behind a cleanly closed stream and requires
// it refused by segment and offset. It returns the directory.
func refusesType1Frame(t *testing.T, shards int) PersistConfig {
	pc := PersistConfig{Dir: t.TempDir()}
	a, _, err := Open(shardPersistCfg(shards), pc)
	if err != nil {
		t.Fatal(err)
	}
	feedDays(t, a, 0, 2)
	shutdown(t, a)
	segs, err := listSegments(filepath.Join(pc.Dir, "wal"), walShardPrefix(shards-1))
	if err != nil || len(segs) == 0 {
		t.Fatalf("no WAL segments (%v)", err)
	}
	last := segs[len(segs)-1].path
	fi, err := os.Stat(last)
	if err != nil {
		t.Fatal(err)
	}
	part, _, err := encodePartPayload(1, 1, persistDayEvents(3))
	if err != nil {
		t.Fatal(err)
	}
	f, err := os.OpenFile(last, os.O_WRONLY|os.O_APPEND, 0)
	if err != nil {
		t.Fatal(err)
	}
	// Type byte 1, then the batch's JSON array.
	if _, err := f.Write(encodeFrame(append([]byte{1}, part[partHeaderSize:]...))); err != nil {
		t.Fatal(err)
	}
	f.Close()
	refuses(t, shardPersistCfg(shards), pc,
		fmt.Sprintf("%s offset %d:", filepath.Base(last), fi.Size()), "unknown WAL record type 1")
	return pc
}

// refusesJSONOpenDay writes a snapshot cut whose open-day slot holds the day's
// events as a JSON array and requires Open to refuse the snapshot by name.
// It returns the directory.
func refusesJSONOpenDay(t *testing.T, shards int) PersistConfig {
	ctx := context.Background()
	cfg := shardPersistCfg(shards)
	cfg.IngestorFactory = func(users []string, start cert.Day) (Ingestor, error) {
		ing, err := NewCERTIngestor(users, start)
		return jsonOpenDay{ing}, err
	}
	pc := PersistConfig{Dir: t.TempDir(), SnapshotEvery: 2}
	a, _, err := Open(cfg, pc)
	if err != nil {
		t.Fatal(err)
	}
	feedDays(t, a, 0, 0)
	for d := cert.Day(1); d <= 2; d++ {
		if err := a.Submit(ctx, persistDayEvents(d)); err != nil {
			t.Fatal(err)
		}
	}
	if err := a.CloseDay(ctx, 1); err != nil { // the cut, with day 2 open
		t.Fatal(err)
	}
	shutdown(t, a)
	k := slices.IndexFunc(a.shards, func(sh *shard) bool { return sh.ing != nil && len(sh.ing.OpenDays()) > 0 })
	if k < 0 {
		t.Fatal("no shard held the open day at the cut")
	}
	_, _, err = Open(shardPersistCfg(shards), pc)
	wantRefusal(t, "Open", err, filepath.Base(snapPath(pc.Dir, snapShardPrefix(k), 1)))
	// The offline verifier attests who wrote the snapshot, not what its
	// state blobs hold: the file is the directory key's own signed bytes,
	// so it verifies, and it is Open that refuses to load it.
	if _, err := VerifyAudit(pc.Dir, a.auditPub()); err != nil {
		t.Fatalf("VerifyAudit of a directory the key signed: %v", err)
	}
	return pc
}

// refusesPreviousVersionSnapshot stamps every snapshot with version 2 —
// the signed form that also stored the deviation windows and shard 0's
// group state — checksummed and signed as its writer would have, and
// requires the header refused by number in Open and the offline verifier
// alike. It returns the directory.
func refusesPreviousVersionSnapshot(t *testing.T, shards int) PersistConfig {
	pc := PersistConfig{Dir: t.TempDir(), SnapshotEvery: 2}
	a, _, err := Open(shardPersistCfg(shards), pc)
	if err != nil {
		t.Fatal(err)
	}
	feedDays(t, a, 0, 2) // the cut at day 1, a tail behind it
	shutdown(t, a)
	const old = snapVersion - 2
	for k := 0; k < shards; k++ {
		resealSnapshot(t, a, snapPath(pc.Dir, snapShardPrefix(k), 1), func(body []byte) {
			binary.LittleEndian.PutUint32(body[4:8], old)          // header
			binary.LittleEndian.PutUint32(body[len(body)-4:], old) // trailer
		})
	}
	refuses(t, shardPersistCfg(shards), pc,
		filepath.Base(snapPath(pc.Dir, snapShardPrefix(0), 1)), fmt.Sprintf("snapshot version %d unsupported", old))
	return pc
}

// TestSubmitRejectsOversizedBatch: an oversized batch is rejected whole
// with ErrBatchTooLarge on both routes — a one-part batch by its owning
// shard's cap check, a batch that fans out by Submit's whole-batch
// pre-check — and neither buffers nor logs any of it.
func TestSubmitRejectsOversizedBatch(t *testing.T) {
	for _, shards := range []int{1, 3} {
		t.Run(fmt.Sprintf("shards=%d", shards), func(t *testing.T) {
			dir := t.TempDir()
			ctx := context.Background()
			cfg := shardPersistCfg(shards)
			cfg.Users = spanningUsers(t, shards, 2) // the batch below reaches every shard
			cfg.Membership = make([]int, len(cfg.Users))
			for i := range cfg.Membership {
				cfg.Membership[i] = i % len(cfg.Groups)
			}
			a, _, err := Open(cfg, PersistConfig{Dir: dir})
			if err != nil {
				t.Fatal(err)
			}
			defer shutdown(t, a)
			batch := []Event{{Cert: &cert.Event{
				Type: cert.EventHTTP, Time: cert.Day(0).Date(), User: cfg.Users[0],
				Activity: cert.ActUpload, Domain: strings.Repeat("a", maxWALRecord),
			}}}
			for _, u := range cfg.Users[1:] {
				batch = append(batch, Event{Cert: &cert.Event{Type: cert.EventLogon, Time: cert.Day(0).Date(), User: u, Activity: cert.ActLogon}})
			}
			err = a.Submit(ctx, batch)
			if !errors.Is(err, ErrBatchTooLarge) {
				t.Fatalf("oversized submit = %v, want ErrBatchTooLarge", err)
			}
			if errors.Is(err, ErrPersistenceFailed) {
				t.Fatalf("oversized batch latched the server: %v", err)
			}
			if st := a.Status(); st.Ingested != 0 {
				t.Fatalf("%d events of the rejected batch were buffered", st.Ingested)
			}
			walDir := filepath.Join(dir, "wal")
			for k := 0; k < shards; k++ {
				fi, err := os.Stat(walSegPath(walDir, walShardPrefix(k), 1))
				if err != nil {
					t.Fatal(err)
				}
				if fi.Size() != walHeaderSize {
					t.Fatalf("shard %d logged %d bytes of the rejected batch", k, fi.Size()-walHeaderSize)
				}
			}
			// The rejection is per-batch: normal ingest continues.
			if err := a.Submit(ctx, batch[1:]); err != nil {
				t.Fatal(err)
			}
			if err := a.CloseDay(ctx, 0); err != nil {
				t.Fatal(err)
			}
			if st := a.Status(); st.PersistError != "" || st.Ingested != int64(len(batch)-1) {
				t.Fatalf("after the rejection: persist error %q, %d ingested", st.PersistError, st.Ingested)
			}
		})
	}
}

// failingConsume wraps the CERT ingestor and fails day-close apply on one
// day, modelling an apply error after the close barrier was WAL-logged.
type failingConsume struct {
	*CERTIngestor
	failOn cert.Day
}

func (f *failingConsume) CloseDay(d cert.Day) (int, error) {
	if d == f.failOn {
		return 0, errors.New("synthetic apply failure")
	}
	return f.CERTIngestor.CloseDay(d)
}

func TestDayCloseFailureLatchesAndLogRecovers(t *testing.T) {
	dir := t.TempDir()
	ctx := context.Background()
	const failOn = cert.Day(4)
	cfg := persistCfg()
	ing, err := NewCERTIngestor(cfg.Users, cfg.Start)
	if err != nil {
		t.Fatal(err)
	}
	cfg.IngestorFactory = func([]string, cert.Day) (Ingestor, error) {
		return &failingConsume{CERTIngestor: ing, failOn: failOn}, nil
	}
	a, _, err := Open(cfg, PersistConfig{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	for d := cert.Day(0); d < failOn; d++ {
		if err := a.Submit(ctx, persistDayEvents(d)); err != nil {
			t.Fatal(err)
		}
		if err := a.CloseDay(ctx, d); err != nil {
			t.Fatal(err)
		}
	}
	if err := a.Submit(ctx, persistDayEvents(failOn)); err != nil {
		t.Fatal(err)
	}
	// The barrier is durably logged before the apply fails: the server
	// must latch instead of serving state its log no longer describes.
	if err := a.CloseDay(ctx, failOn); !errors.Is(err, ErrPersistenceFailed) {
		t.Fatalf("close after apply failure = %v, want ErrPersistenceFailed", err)
	}
	if err := a.Submit(ctx, persistDayEvents(failOn+1)); !errors.Is(err, ErrPersistenceFailed) {
		t.Fatalf("submit after latch = %v, want ErrPersistenceFailed", err)
	}
	shutdown(t, a)

	// The log is the truth: a healthy ingestor replays it in full,
	// including the barrier whose apply failed in the crashed process.
	b, info, err := Open(persistCfg(), PersistConfig{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	defer shutdown(t, b)
	if info.ClosedThrough != failOn {
		t.Fatalf("recovered ClosedThrough = %v, want %v", info.ClosedThrough, failOn)
	}
	if got, want := serverStateBytes(t, b), referenceStateBytes(t, failOn); !bytes.Equal(got, want) {
		t.Fatal("replayed state differs from uninterrupted run")
	}
}

// TestRecoverRejectsSegmentGap is testSegmentGap's one-shard input.
func TestRecoverRejectsSegmentGap(t *testing.T) { testSegmentGap(t, 1) }

func TestRecoverRejectsMissingSnapshotSegment(t *testing.T) {
	for _, shards := range []int{1, 3} {
		t.Run(fmt.Sprintf("shards=%d", shards), func(t *testing.T) {
			dir := t.TempDir()
			pc := PersistConfig{Dir: dir, SnapshotEvery: 5, SegmentBytes: 2048}
			a, _, err := Open(shardPersistCfg(shards), pc)
			if err != nil {
				t.Fatal(err)
			}
			feedDays(t, a, 0, 22) // snapshots at 4, 9, 14, 19; retained: 19, 14
			shutdown(t, a)

			// Corrupt the newest snapshot so recovery falls back to day 14,
			// then delete the segment day 14's position points into: replay
			// must fail loudly instead of skipping the hole.
			k := shards - 1
			h14, err := readSnapHeader(snapPath(dir, snapShardPrefix(k), 14))
			if err != nil {
				t.Fatal(err)
			}
			data, err := os.ReadFile(snapPath(dir, snapShardPrefix(k), 19))
			if err != nil {
				t.Fatal(err)
			}
			data[len(data)/2] ^= 0xff
			if err := os.WriteFile(snapPath(dir, snapShardPrefix(k), 19), data, 0o644); err != nil {
				t.Fatal(err)
			}
			if err := os.Remove(walSegPath(filepath.Join(dir, "wal"), walShardPrefix(k), h14.pos.seg)); err != nil {
				t.Fatal(err)
			}

			if _, _, err := Open(shardPersistCfg(shards), pc); err == nil {
				t.Fatal("recovery with the fallback snapshot's WAL segment missing succeeded")
			} else if !strings.Contains(err.Error(), "history gap") {
				t.Fatalf("missing-segment error = %v, want a history-gap failure", err)
			}
		})
	}
}

func TestPruneKeepsSegmentsWhenRetainedSnapshotUnreadable(t *testing.T) {
	dir := t.TempDir()
	pc := PersistConfig{Dir: dir, SnapshotEvery: 5, SegmentBytes: 2048}
	a, _, err := Open(persistCfg(), pc)
	if err != nil {
		t.Fatal(err)
	}
	feedDays(t, a, 0, 13) // snapshots at 4 and 9
	walDir := filepath.Join(dir, "wal")
	before, err := listSegments(walDir, walShardPrefix(0))
	if err != nil {
		t.Fatal(err)
	}
	// Make the retained snapshot's header unreadable: the next prune can
	// no longer tell which segments it needs and must keep all of them.
	f, err := os.OpenFile(snapPath(dir, snapShardPrefix(0), 9), os.O_WRONLY, 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.WriteAt([]byte("XXXX"), 0); err != nil {
		t.Fatal(err)
	}
	f.Close()

	feedDays(t, a, 14, 14) // publishes the day-14 snapshot and prunes
	defer shutdown(t, a)
	if st := a.Status(); st.PersistError != "" {
		t.Fatalf("persist error after prune with unreadable snapshot: %s", st.PersistError)
	}
	after, err := listSegments(walDir, walShardPrefix(0))
	if err != nil {
		t.Fatal(err)
	}
	for _, sf := range before {
		if !slices.Contains(after, sf) {
			t.Fatalf("segment %d was pruned although a retained snapshot is unreadable (before %v, after %v)", sf.num, before, after)
		}
	}
}

func TestSyncDirAfterPublishAndSegmentCreate(t *testing.T) {
	dir := t.TempDir()
	var (
		mu  sync.Mutex
		ops []string
	)
	pc := PersistConfig{
		Dir: dir, SnapshotEvery: 2, SegmentBytes: 2048,
		Hooks: Hooks{BeforeOp: func(op, name string) error {
			mu.Lock()
			ops = append(ops, fmt.Sprintf("%s %s", op, name))
			mu.Unlock()
			return nil
		}},
	}
	a, _, err := Open(persistCfg(), pc)
	if err != nil {
		t.Fatal(err)
	}
	feedDays(t, a, 0, 3)
	shutdown(t, a)

	mu.Lock()
	defer mu.Unlock()
	wantWal, wantData := fmt.Sprintf("syncdir %s", filepath.Base(filepath.Join(dir, "wal"))), fmt.Sprintf("syncdir %s", filepath.Base(dir))
	var gotWal, gotData bool
	for _, op := range ops {
		gotWal = gotWal || op == wantWal
		gotData = gotData || op == wantData
	}
	if !gotWal {
		t.Errorf("no WAL directory fsync after segment create (ops: %v)", ops)
	}
	if !gotData {
		t.Errorf("no data directory fsync after snapshot publish (ops: %v)", ops)
	}
}
