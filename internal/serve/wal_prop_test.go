package serve

import (
	"bytes"
	"context"
	"encoding/binary"
	"os"
	"path/filepath"
	"testing"

	"acobe/internal/audit"
	"acobe/internal/cert"
	"acobe/internal/testkit"
)

// These are the crash-safety properties of the WAL reader, checked
// exhaustively rather than by example: a crash can cut the log at any byte
// and flip bits in the tail, and whatever survives must decode to a prefix
// of what was written — never a reordering, duplication, or fabrication.

// buildWALImage assembles a segment image the way the appender does:
// header, then for each day a one-part batch frame followed by a close
// frame.
func buildWALImage(t *testing.T, seq uint64, days int) []byte {
	t.Helper()
	var buf bytes.Buffer
	buf.Write(encodeSegHeader(seq, audit.Head{}))
	for d := cert.Day(0); d < cert.Day(days); d++ {
		payload, _, err := encodePartPayload(uint64(d)+1, 1, persistDayEvents(d))
		if err != nil {
			t.Fatal(err)
		}
		buf.Write(encodeFrame(payload))
		var cp [9]byte
		cp[0] = recClose
		binary.LittleEndian.PutUint64(cp[1:], uint64(int64(d)))
		buf.Write(encodeFrame(cp[:]))
	}
	return buf.Bytes()
}

// samePrefix asserts frames equals want[:len(frames)] exactly (offsets and
// payload bytes).
func samePrefix(t *testing.T, frames, want []walFrame, what string) {
	t.Helper()
	if len(frames) > len(want) {
		t.Fatalf("%s: %d frames parsed, only %d written (fabricated frames)", what, len(frames), len(want))
	}
	for i, fr := range frames {
		if fr.off != want[i].off {
			t.Fatalf("%s: frame %d at offset %d, want %d (reordered)", what, i, fr.off, want[i].off)
		}
		if !bytes.Equal(fr.payload, want[i].payload) {
			t.Fatalf("%s: frame %d payload differs from what was written", what, i)
		}
	}
}

// TestWALPrefixAtEveryTruncation cuts a segment image at every byte offset
// and checks that the parser returns exactly the maximal whole-frame prefix:
// every frame wholly inside the cut, in order, and nothing else.
func TestWALPrefixAtEveryTruncation(t *testing.T) {
	full := buildWALImage(t, 1, 9)
	_, want, fullGood, hdrOK := parseSegment(full)
	if !hdrOK || fullGood != len(full) {
		t.Fatalf("intact image: goodLen=%d of %d, hdrOK=%v", fullGood, len(full), hdrOK)
	}
	for k := 0; k <= len(full); k++ {
		seq, frames, goodLen, hdrOK := parseSegment(full[:k])
		if !hdrOK {
			if k >= walHeaderSize {
				t.Fatalf("cut at %d: valid header rejected", k)
			}
			if len(frames) != 0 || goodLen != 0 {
				t.Fatalf("cut at %d: invalid header but frames=%d goodLen=%d", k, len(frames), goodLen)
			}
			continue
		}
		if seq != 1 {
			t.Fatalf("cut at %d: seq = %d, want 1", k, seq)
		}
		if goodLen > k {
			t.Fatalf("cut at %d: goodLen %d past the cut", k, goodLen)
		}
		samePrefix(t, frames, want, "cut")
		// Maximality: the next written frame must not fit inside the cut.
		if len(frames) < len(want) {
			nf := want[len(frames)]
			if nf.off+8+len(nf.payload) <= k {
				t.Fatalf("cut at %d: frame %d fits wholly inside the cut but was dropped", k, len(frames))
			}
		}
		if goodLen != walHeaderSize+framesSpan(frames) {
			t.Fatalf("cut at %d: goodLen %d does not cover exactly the parsed frames", k, goodLen)
		}
	}
}

func framesSpan(frames []walFrame) int {
	n := 0
	for _, fr := range frames {
		n += 8 + len(fr.payload)
	}
	return n
}

// TestWALPrefixUnderBitFlips flips every byte of a segment image in turn.
// Frames wholly before the flipped byte must come back untouched; the
// damaged frame and everything behind it must be dropped, never mangled
// into something new.
func TestWALPrefixUnderBitFlips(t *testing.T) {
	full := buildWALImage(t, 1, 6)
	_, want, _, _ := parseSegment(full)
	data := make([]byte, len(full))
	for x := 0; x < len(full); x++ {
		copy(data, full)
		data[x] ^= 0xff
		_, frames, goodLen, hdrOK := parseSegment(data)
		if x < 8 { // magic or version damaged
			if hdrOK {
				t.Fatalf("flip at %d: corrupted header accepted", x)
			}
			continue
		}
		if !hdrOK {
			t.Fatalf("flip at %d: header intact but rejected", x)
		}
		if goodLen > len(data) {
			t.Fatalf("flip at %d: goodLen %d past the data", x, goodLen)
		}
		samePrefix(t, frames, want, "flip")
		// The flip lands in the seq or chain-link field (frames unaffected)
		// or inside frame i; everything before i must survive, i itself
		// must not.
		if x < walHeaderSize {
			if len(frames) != len(want) {
				t.Fatalf("flip at %d (seq or link field): %d frames, want all %d", x, len(frames), len(want))
			}
			continue
		}
		hit := -1
		for i, fr := range want {
			if x >= fr.off && x < fr.off+8+len(fr.payload) {
				hit = i
				break
			}
		}
		if hit < 0 {
			t.Fatalf("flip at %d: offset in no frame", x)
		}
		if len(frames) != hit {
			t.Fatalf("flip at %d inside frame %d: parser returned %d frames", x, hit, len(frames))
		}
	}
}

// TestPersistRecoveryAtOffsets drives a real persisted server, then crops
// its WAL at a spread of byte offsets and recovers from each cropped copy.
// Recovery must land in exactly the state of an uninterrupted run over the
// surviving closed days (accumulator deep-equality via the deterministic
// state encoding), and re-ingesting the missing suffix must converge to the
// uninterrupted full run. The cropped tail loses its seal, and the
// recovered directory must verify offline once it shut down cleanly. In
// the plain form the same log, cut anywhere past its version field, is
// refused by name and never truncated.
func TestPersistRecoveryAtOffsets(t *testing.T) {
	t.Run("audit=true", testRecoveryAtOffsets)
	t.Run("audit=false", func(t *testing.T) {
		pc := plainCopy(t, PersistConfig{Dir: oneSegmentDir(t, 8)})
		seg := walSegPath(filepath.Join(pc.Dir, "wal"), walShardPrefix(0), 1)
		full, err := os.ReadFile(seg)
		if err != nil {
			t.Fatal(err)
		}
		for k := 8; k <= len(full); k += len(full)/17 + 1 {
			if err := os.WriteFile(seg, full[:k], 0o644); err != nil {
				t.Fatal(err)
			}
			refusesPlainForm(t, persistCfg(), pc)
		}
	})
}

// oneSegmentDir feeds days [0, lastDay] into a fresh one-shard directory
// whose log fits one segment, shuts down cleanly, and returns the
// directory.
func oneSegmentDir(t *testing.T, lastDay cert.Day) string {
	t.Helper()
	dir := t.TempDir()
	a, _, err := Open(persistCfg(), PersistConfig{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	feedDays(t, a, 0, lastDay)
	shutdown(t, a)
	if segs, err := listSegments(filepath.Join(dir, "wal"), walShardPrefix(0)); err != nil || len(segs) != 1 {
		t.Fatalf("want a single WAL segment, got %v (%v)", segs, err)
	}
	return dir
}

func testRecoveryAtOffsets(t *testing.T) {
	const lastDay = 8
	ctx := context.Background()
	src := oneSegmentDir(t, lastDay)
	full, err := os.ReadFile(walSegPath(filepath.Join(src, "wal"), walShardPrefix(0), 1))
	if err != nil {
		t.Fatal(err)
	}

	refCache := map[cert.Day][]byte{}
	ref := func(d cert.Day) []byte {
		if b, ok := refCache[d]; ok {
			return b
		}
		b := referenceStateBytes(t, d)
		refCache[d] = b
		return b
	}

	stride := len(full)/17 + 1
	for k := 0; k <= len(full); k += stride {
		// The cropped copy keeps everything but the WAL (the audit key).
		dir := t.TempDir()
		if err := testkit.CopyTree(src, dir); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(walSegPath(filepath.Join(dir, "wal"), walShardPrefix(0), 1), full[:k], 0o644); err != nil {
			t.Fatal(err)
		}
		b, info, err := Open(persistCfg(), PersistConfig{Dir: dir})
		if err != nil {
			t.Fatalf("cut at %d: recovery failed: %v", k, err)
		}
		if info.ClosedThrough > lastDay {
			t.Fatalf("cut at %d: recovered days beyond what was written", k)
		}
		if got := serverStateBytes(t, b); !bytes.Equal(got, ref(info.ClosedThrough)) {
			t.Fatalf("cut at %d: recovered state (closed through %v) differs from uninterrupted run", k, info.ClosedThrough)
		}
		// Re-ingest the suffix: durable-but-open batches are only closed
		// (resubmitting would double-ingest), lost ones are resubmitted.
		for d := info.ClosedThrough + 1; d <= lastDay; d++ {
			if info.BufferedEvents[d] == 0 {
				if err := b.Submit(ctx, persistDayEvents(d)); err != nil {
					t.Fatalf("cut at %d: resubmit day %v: %v", k, d, err)
				}
			} else if info.BufferedEvents[d] != len(persistDayEvents(d)) {
				t.Fatalf("cut at %d: day %v recovered with %d of %d events (batch torn despite single-frame append)",
					k, d, info.BufferedEvents[d], len(persistDayEvents(d)))
			}
			if err := b.CloseDay(ctx, d); err != nil {
				t.Fatalf("cut at %d: close day %v: %v", k, d, err)
			}
		}
		if got := serverStateBytes(t, b); !bytes.Equal(got, ref(lastDay)) {
			t.Fatalf("cut at %d: state after re-ingesting the suffix differs from uninterrupted run", k)
		}
		verifyAfterShutdown(t, b)
	}
}
