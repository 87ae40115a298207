package features

import (
	"bytes"
	"fmt"
	"testing"

	"acobe/internal/cert"
)

// stateTestEvents returns a varied synthetic day of events exercising the
// device, file, and HTTP first-seen trackers.
func stateTestEvents(d cert.Day) []cert.Event {
	pc := fmt.Sprintf("PC-%d", d%3)
	file := fmt.Sprintf("F%d", d%4)
	return []cert.Event{
		{Type: cert.EventLogon, Time: at(d, 9), User: "alice", Activity: cert.ActLogon},
		{Type: cert.EventDevice, Time: at(d, 10), User: "alice", PC: pc, Activity: cert.ActConnect},
		{Type: cert.EventDevice, Time: at(d, 23), User: "bob", PC: pc, Activity: cert.ActConnect},
		{Type: cert.EventFile, Time: at(d, 11), User: "alice", Activity: cert.ActFileOpen, Direction: cert.DirLocal, FileID: file},
		{Type: cert.EventFile, Time: at(d, 12), User: "bob", Activity: cert.ActFileCopy, Direction: cert.DirLocalToRemote, FileID: file},
		{Type: cert.EventHTTP, Time: at(d, 13), User: "alice", Activity: cert.ActUpload, FileType: "doc", Domain: fmt.Sprintf("d%d.com", d%2)},
		{Type: cert.EventHTTP, Time: at(d, 14), User: "bob", Activity: cert.ActVisit, Domain: "news.com"},
	}
}

func encodeExtractor(t testing.TB, x *Extractor) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := x.SaveState(&buf); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

func TestExtractorStateRoundTrip(t *testing.T) {
	users := []string{"alice", "bob"}
	full := newTestExtractor(t)
	mid := newTestExtractor(t)
	for d := cert.Day(0); d <= 9; d++ {
		if err := full.Consume(d, stateTestEvents(d)); err != nil {
			t.Fatal(err)
		}
		if d <= 5 {
			if err := mid.Consume(d, stateTestEvents(d)); err != nil {
				t.Fatal(err)
			}
		}
	}

	// Save at day 5, restore into a fresh extractor, then feed it the rest.
	state := encodeExtractor(t, mid)
	restored, err := NewExtractor(users, 0, 9)
	if err != nil {
		t.Fatal(err)
	}
	if err := restored.LoadState(bytes.NewReader(state)); err != nil {
		t.Fatal(err)
	}
	// Determinism: re-encoding restored state yields identical bytes.
	if !bytes.Equal(state, encodeExtractor(t, restored)) {
		t.Fatal("restored extractor re-encodes to different bytes")
	}
	for d := cert.Day(6); d <= 9; d++ {
		if err := restored.Consume(d, stateTestEvents(d)); err != nil {
			t.Fatal(err)
		}
	}
	// Resuming from saved state must be indistinguishable from never
	// having stopped.
	if !bytes.Equal(encodeExtractor(t, full), encodeExtractor(t, restored)) {
		t.Error("resumed extractor state differs from uninterrupted run")
	}
}

func TestExtractorStateRejectsMismatch(t *testing.T) {
	x := newTestExtractor(t)
	if err := x.Consume(0, stateTestEvents(0)); err != nil {
		t.Fatal(err)
	}
	state := encodeExtractor(t, x)

	other, err := NewExtractor([]string{"alice", "bob", "carol"}, 0, 9)
	if err != nil {
		t.Fatal(err)
	}
	if err := other.LoadState(bytes.NewReader(state)); err == nil {
		t.Error("no error loading state into extractor with different users")
	}

	shifted, err := NewExtractor([]string{"alice", "bob"}, 1, 9)
	if err != nil {
		t.Fatal(err)
	}
	if err := shifted.LoadState(bytes.NewReader(state)); err == nil {
		t.Error("no error loading state into extractor with different start day")
	}
}

func TestExtractorStateRejectsCorrupt(t *testing.T) {
	x := newTestExtractor(t)
	for d := cert.Day(0); d <= 3; d++ {
		if err := x.Consume(d, stateTestEvents(d)); err != nil {
			t.Fatal(err)
		}
	}
	state := encodeExtractor(t, x)
	// Truncation at a few offsets must error, never panic.
	for _, cut := range []int{0, 3, 8, len(state) / 2, len(state) - 1} {
		fresh := newTestExtractor(t)
		if err := fresh.LoadState(bytes.NewReader(state[:cut])); err == nil {
			t.Errorf("no error for state truncated at %d bytes", cut)
		}
	}
	// Bad magic.
	bad := append([]byte(nil), state...)
	bad[0] ^= 0xff
	fresh := newTestExtractor(t)
	if err := fresh.LoadState(bytes.NewReader(bad)); err == nil {
		t.Error("no error for corrupted magic")
	}
}
