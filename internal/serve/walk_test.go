package serve

import (
	"context"
	"crypto/ed25519"
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"os"
	"path/filepath"
	"reflect"
	"runtime"
	"strings"
	"testing"
	"time"

	"acobe/internal/cert"
)

// walkFixture writes an audited directory of days [0, 20], six users on
// every shard, rotating segments at segBytes — 8 KiB makes each shard's
// stream span several, each holding a few event parts — and returns it
// with its configuration and public key.
func walkFixture(t *testing.T, shards int, segBytes int64) (Config, PersistConfig, ed25519.PublicKey) {
	t.Helper()
	cfg := shardPersistCfg(shards)
	cfg.Users = spanningUsers(t, shards, 6)
	cfg.Membership = make([]int, len(cfg.Users))
	for u := range cfg.Membership {
		cfg.Membership[u] = u % len(cfg.Groups)
	}
	pc := PersistConfig{Dir: t.TempDir(), SnapshotEvery: 8, SegmentBytes: segBytes}
	s, _, err := Open(cfg, pc)
	if err != nil {
		t.Fatal(err)
	}
	feedDays(t, s, 0, 20)
	pub := append(ed25519.PublicKey(nil), s.auditPub()...)
	shutdown(t, s)
	return cfg, pc, pub
}

// walkTrace is everything one walk handed its visitor, and how it ended.
type walkTrace struct {
	frames []walkedFrame
	end    streamEnd
	err    error
}

// traceWalk walks a stream at the given GOMAXPROCS, which sizes the walk's
// worker pool.
func traceWalk(walDir, prefix string, o walkOpts, procs int) walkTrace {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(procs))
	var tr walkTrace
	tr.end, tr.err = walkStream(walDir, prefix, o, func(f *walkedFrame) error {
		tr.frames = append(tr.frames, *f)
		return nil
	})
	return tr
}

// TestWalkParity: a walk prepares frames on GOMAXPROCS workers and folds
// them on one loop, so how many workers there are must not show. Over a
// multi-segment audited directory at shards {1, 3}, the strict walk
// VerifyAudit runs and the tolerant one Open runs from the loaded
// snapshot's position visit the same frames — record, position, pre-head,
// root and leaves — and end in the same place at GOMAXPROCS 1 as at 4, on
// every repeat.
func TestWalkParity(t *testing.T) {
	for _, shards := range []int{1, 3} {
		t.Run(fmt.Sprintf("shards=%d", shards), func(t *testing.T) {
			_, pc, pub := walkFixture(t, shards, 8<<10)
			cuts, err := scanCuts(pc.Dir, cutPolicy{
				pub: pub, strict: true, fan: perShard,
				read: func(_ int, path string) (snapHeader, error) { return readSnapshotFile(path, pub, drainState) },
			})
			if err != nil || cuts.cut == nil {
				t.Fatalf("scan: %v, cut %v", err, cuts)
			}
			walDir := filepath.Join(pc.Dir, "wal")
			for k := range shards {
				prefix := walShardPrefix(k)
				if n := len(segmentNames(t, pc.Dir, prefix)); n < 2 {
					t.Fatalf("shard %d has %d segments, want several", k, n)
				}
				for _, o := range []walkOpts{
					{strict: true, checks: cuts.checks[k]},
					{checks: cuts.checks[k], from: &cuts.hdrs[k].pos},
				} {
					serial := traceWalk(walDir, prefix, o, 1)
					if serial.err != nil || len(serial.frames) == 0 {
						t.Fatalf("shard %d serial walk: %v, %d frames", k, serial.err, len(serial.frames))
					}
					for rep := range 3 {
						if par := traceWalk(walDir, prefix, o, 4); !reflect.DeepEqual(par, serial) {
							t.Fatalf("shard %d (from %v) repeat %d: the walk at GOMAXPROCS 4 differs from the one at 1:\nend %+v (%v), %d frames\nwant end %+v, %d frames",
								k, o.from, rep, par.end, par.err, len(par.frames), serial.end, len(serial.frames))
						}
					}
				}
			}
		})
	}
}

// TestFramePipeBytes: a walk holds a bounded window of prepared frames,
// never a segment's. Over a segment of event parts of 100–400 KB and one
// larger than pipeBytes, at 1, 2 and 4 workers: the frames handed out and
// not yet released never hold more than pipeBytes of payload, unless one
// frame alone is larger; a released slot keeps no record, leaves or
// payload; small frames still run ahead of the one taken; and every frame
// comes back as decodeRecord reads it.
func TestFramePipeBytes(t *testing.T) {
	evs := make([]Event, 15000)
	for j := range evs {
		evs[j] = Event{Cert: &cert.Event{
			Type: cert.EventLogon, Time: cert.Day(0).Date().Add(time.Duration(j) * time.Second),
			User: fmt.Sprintf("u%d", j%50), PC: "PC-1", Activity: cert.ActLogon,
		}}
	}
	var frames []walFrame
	off := walHeaderSize
	for j := range 24 {
		n := (j%4 + 1) * 1000
		if j == 10 {
			n = len(evs)
		}
		payload, _, err := encodePartPayload(uint64(j+1), 1, evs[:n])
		if err != nil {
			t.Fatal(err)
		}
		frames = append(frames, walFrame{off: off, payload: payload})
		off += 8 + len(payload)
	}
	if big := len(frames[10].payload); big <= pipeBytes || len(frames[0].payload) > pipeBytes/4 {
		t.Fatalf("frame sizes %d and %d do not straddle the %d-byte bound", len(frames[0].payload), big, pipeBytes)
	}
	for _, workers := range []int{1, 2, 4} {
		p := newFramePipe(workers)
		p.start(frames, frames[len(frames)/2].off)
		ahead := 0
		for i, fr := range frames {
			fp := p.take(i)
			bytes := 0
			for _, f := range frames[i:p.sent] {
				bytes += len(f.payload)
			}
			if bytes > pipeBytes && p.sent > i+1 {
				t.Fatalf("%d workers: frame %d taken with frames [%d, %d) in flight, %d payload bytes over the %d-byte bound", workers, i, i, p.sent, bytes, pipeBytes)
			}
			ahead = max(ahead, p.sent-i)
			for j := range p.slots {
				if s := &p.slots[j]; (j-i%len(p.slots)+len(p.slots))%len(p.slots) >= p.sent-i && (s.payload != nil || s.rec.events != nil || s.leaves != nil) {
					t.Fatalf("%d workers: at frame %d, free slot %d still holds a %d-byte payload, %d events, %d leaves", workers, i, j, len(s.payload), len(s.rec.events), len(s.leaves))
				}
			}
			want, _, werr := decodeRecord(fr.payload, nil, fr.off >= frames[len(frames)/2].off)
			if fp.err != nil || werr != nil || !reflect.DeepEqual(fp.rec, want) || (want.events != nil && len(fp.leaves) != len(want.events)) {
				t.Fatalf("%d workers: frame %d prepared as a type-%d record (%v), not the type-%d record it holds (%v)", workers, i, fp.rec.typ, fp.err, want.typ, werr)
			}
		}
		if want := min(len(p.slots), 2); ahead < want {
			t.Fatalf("%d workers: at most %d frames in flight, want %d ahead", workers, ahead, want)
		}
		p.stop()
	}
}

// breakPart makes the n-th event part of a segment (n < 0 counts from the
// end) undecodable — its first element's payload opens an array where an
// object belongs — and re-stamps the frame's CRC, so framing passes and
// only the decode can object. It returns the frame's offset.
func breakPart(t *testing.T, path string, n int) int64 {
	t.Helper()
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	_, frames, _, _ := parseSegment(data)
	var parts []walFrame
	for _, fr := range frames {
		if fr.payload[0] == recEventsPart && len(fr.payload) > partHeaderSize+2 {
			parts = append(parts, fr)
		}
	}
	if n < 0 {
		n += len(parts)
	}
	if n < 0 || n >= len(parts) {
		t.Fatalf("%s has %d event parts, no part %d", filepath.Base(path), len(parts), n)
	}
	fr := parts[n]
	i := strings.Index(string(fr.payload), `{"cert":{`)
	if i < 0 {
		t.Fatalf("%s offset %d holds no cert event", filepath.Base(path), fr.off)
	}
	fr.payload[i+len(`{"cert":`)] = '[' // fr.payload aliases data
	binary.LittleEndian.PutUint32(data[fr.off+4:fr.off+8], crc32.ChecksumIEEE(fr.payload))
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	return int64(fr.off)
}

// TestWalkNamesEarliestDamage: with two undecodable frames in a stream, the
// walk's workers may reach the later one first, but Open and VerifyAudit
// both refuse naming the earlier one, on every repeat: two frames in
// different segments, one behind the loaded snapshot's position and one
// past it, and two event parts of one segment, within one window.
func TestWalkNamesEarliestDamage(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(max(runtime.GOMAXPROCS(0), 4)))
	cfg, pc, pub := walkFixture(t, 1, 8<<10)
	names := segmentNames(t, pc.Dir, walShardPrefix(0))
	if len(names) < 3 {
		t.Fatalf("fixture has %d segments, want ≥ 3", len(names))
	}
	for _, c := range []struct {
		name string
		edit func(dir string) (seg string, off int64)
	}{
		{"different segments", func(dir string) (string, int64) {
			off := breakPart(t, filepath.Join(dir, "wal", names[0]), 0)
			breakPart(t, filepath.Join(dir, "wal", names[len(names)-1]), -1)
			return names[0], off
		}},
		{"one segment", func(dir string) (string, int64) {
			seg := names[len(names)-2]
			path := filepath.Join(dir, "wal", seg)
			breakPart(t, path, 1)
			return seg, breakPart(t, path, 0)
		}},
	} {
		var seg string
		var off int64
		dir, _ := cloneWith(t, pc.Dir, func(dir string) string {
			seg, off = c.edit(dir)
			return seg
		})
		where := fmt.Sprintf("%s offset %d: ", seg, off)
		for rep := range 5 {
			_, verr := VerifyAudit(dir, pub)
			o := pc
			o.Dir = dir
			s, _, oerr := Open(cfg, o)
			if oerr == nil {
				shutdown(t, s)
			}
			for what, err := range map[string]error{"VerifyAudit": verr, "Open": oerr} {
				if err == nil || !strings.Contains(err.Error(), where) {
					t.Fatalf("%s, repeat %d: %s: %v, want a refusal naming %q", c.name, rep, what, err, where)
				}
			}
		}
	}
	// The directory itself was left intact.
	if _, err := VerifyAudit(pc.Dir, pub); err != nil {
		t.Fatal(err)
	}
}

// TestWalkHashesLoggedBytes: the walk's leaves are the logged element
// bytes, not a re-encoding of the decoded events. An event whose time sits
// in a zone less than a minute off UTC (Africa/Accra's mean time was
// −0:00:52) is logged with a "-00:00" offset, which decodes to UTC and
// would re-encode as "Z": hashed that way, the batch's root would not be
// the appended one, and the chain would not verify. Both the fast path
// and an array only encoding/json reads (an escaped string) must keep it.
func TestWalkHashesLoggedBytes(t *testing.T) {
	cfg := persistCfg()
	pc := PersistConfig{Dir: t.TempDir()}
	s, _, err := Open(cfg, pc)
	if err != nil {
		t.Fatal(err)
	}
	at := cert.Day(0).Date().Add(9 * time.Hour).In(time.FixedZone("LMT", -52))
	logon := func(u, pc string) Event {
		return Event{Cert: &cert.Event{Type: cert.EventLogon, Time: at, User: u, PC: pc, Activity: cert.ActLogon}}
	}
	ctx := context.Background()
	for _, batch := range [][]Event{{logon("u0", "PC-1")}, {logon("u1", `PC "2"`), logon("u2", "PC-3")}} {
		if err := s.Submit(ctx, batch); err != nil {
			t.Fatal(err)
		}
	}
	pub := s.auditPub()
	shutdown(t, s)
	if _, err := VerifyAudit(pc.Dir, pub); err != nil {
		t.Fatal(err)
	}
	s, _, err = Open(cfg, pc)
	if err != nil {
		t.Fatal(err)
	}
	shutdown(t, s)
}
