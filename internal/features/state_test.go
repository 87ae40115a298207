package features

import (
	"bytes"
	"crypto/sha256"
	"errors"
	"fmt"
	"slices"
	"strings"
	"testing"

	"acobe/internal/cert"
	"acobe/internal/persist"
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

// TestExtractorStateDigest pins the closed-day state bytes of a fixed
// 100-user, 15-day stream, saved and restored into a fresh extractor after
// its eighth day: the encoding is on disk in every snapshot, so a change to
// how the history is held must leave these digests where they are.
func TestExtractorStateDigest(t *testing.T) {
	checkStateDigest(t, trackedFeatures,
		"f788f8229ff3cc42bf83ba7b7017ee5106dd141f2c94d01fbf7497c5b2ad5569",
		"9ba5ad0cea40f422d06b7107b0565a08931fe06b844a3f75d4e21b68610a6f25")
}

// TestACOBEExtractorStateDigest pins the same stream's state for the
// extractor a serving daemon builds by default, over the paper's three
// aspects' 16 features: fewer table columns, the same history (all three
// new-op kinds are tracked).
func TestACOBEExtractorStateDigest(t *testing.T) {
	checkStateDigest(t, AllFeatureNames(ACOBEAspects()),
		"754f1220aa5afead2553f3897f72be4503bcb1bbafecba85b081316a11ac2824",
		"2ce33d41918e37d08d7573b70e5f2e9a4e78a17113bec5d602e97bc055ea8d05")
}

// checkStateDigest runs the digest stream through an extractor over
// feats, saving and restoring it after the eighth day, and compares the
// state's SHA-256 there and at the end.
func checkStateDigest(t *testing.T, feats []string, wantMid, wantEnd string) {
	t.Helper()
	ids, byDay := genDays(t, 25, 15)
	end := cert.Day(len(byDay) - 1)
	x, err := NewExtractorFor(ids, feats, 0, end)
	if err != nil {
		t.Fatal(err)
	}
	for d, evs := range byDay {
		if d == 8 {
			state := encodeExtractor(t, x)
			if got := fmt.Sprintf("%x", sha256.Sum256(state)); got != wantMid {
				t.Errorf("state after eight days: sha256 %s, want %s", got, wantMid)
			}
			if x, err = NewExtractorFor(ids, feats, 0, end); err != nil {
				t.Fatal(err)
			}
			if err := x.LoadState(bytes.NewReader(state)); err != nil {
				t.Fatal(err)
			}
		}
		if err := x.Consume(cert.Day(d), evs); err != nil {
			t.Fatal(err)
		}
	}
	if got := fmt.Sprintf("%x", sha256.Sum256(encodeExtractor(t, x))); got != wantEnd {
		t.Errorf("state after %d days: sha256 %s, want %s", len(byDay), got, wantEnd)
	}
}

// TestLoadStateNamesMismatch: state written over all 27 features (what a
// daemon before the served table followed its aspects wrote) is refused by
// a 16-feature table, naming the features that differ, and the reverse;
// a roster change names the first user that differs.
func TestLoadStateNamesMismatch(t *testing.T) {
	users := []string{"alice", "bob"}
	acobe := AllFeatureNames(ACOBEAspects())
	save := func(feats []string) []byte {
		x, err := NewExtractorFor(users, feats, 0, 9)
		if err != nil {
			t.Fatal(err)
		}
		if err := x.Consume(0, stateTestEvents(0)); err != nil {
			t.Fatal(err)
		}
		return encodeExtractor(t, x)
	}
	load := func(users, feats []string, state []byte) string {
		x, err := NewExtractorFor(users, feats, 0, 9)
		if err != nil {
			t.Fatal(err)
		}
		err = x.LoadState(bytes.NewReader(state))
		if err == nil {
			t.Fatal("mismatched state loaded")
		}
		return err.Error()
	}
	full, narrow := save(trackedFeatures), save(acobe)

	msg := load(users, acobe, full)
	for _, want := range []string{"27 features", "this table 16", `missing from the state []`, `"coarse:logon"`, `"coarse:email-send"`} {
		if !strings.Contains(msg, want) {
			t.Errorf("27 into 16: %q lacks %q", msg, want)
		}
	}
	if strings.Contains(msg, `"device:connection"`) {
		t.Errorf("27 into 16: %q names a feature both sides hold", msg)
	}
	msg = load(users, trackedFeatures, narrow)
	for _, want := range []string{"16 features", "this table 27", `"coarse:file-open"`, `extra in the state []`} {
		if !strings.Contains(msg, want) {
			t.Errorf("16 into 27: %q lacks %q", msg, want)
		}
	}
	reversed := slices.Clone(acobe)
	slices.Reverse(reversed)
	if msg = load(users, reversed, narrow); !strings.Contains(msg, "another order") {
		t.Errorf("reordered: %q", msg)
	}
	if msg = load([]string{"alice", "carol"}, acobe, narrow); !strings.Contains(msg, `user 1: "bob" in the state, "carol" here`) {
		t.Errorf("roster: %q", msg)
	}
	if msg = load([]string{"alice"}, acobe, narrow); !strings.Contains(msg, `user 1: "bob" in the state, none here`) {
		t.Errorf("shorter roster: %q", msg)
	}
}

// TestLoadStateRefusesUnwritable: the history is outside input, and a
// loader that took what SaveState cannot write would re-save it to other
// bytes. Each case is a valid head followed by a hand-written history.
func TestLoadStateRefusesUnwritable(t *testing.T) {
	var head bytes.Buffer
	if _, err := newTestExtractor(t).SaveHead(&head); err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		name string
		keys [numKinds][2][]string // per kind, per user
		want string
	}{
		{"sorted", [numKinds][2][]string{{{"a", "b"}, nil}, {nil, {"x"}}}, ""},
		{"keys out of order", [numKinds][2][]string{{{"b", "a"}, nil}}, "keys of user 0, kind 0 out of order or repeated"},
		{"repeated key", [numKinds][2][]string{{}, {nil, {"x", "x"}}}, "keys of user 1, kind 1 out of order or repeated"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			state := bytes.NewBuffer(slices.Clone(head.Bytes()))
			pw := persist.NewWriter(state)
			for _, users := range tc.keys {
				pw.U64(uint64(len(users)))
				for _, keys := range users {
					pw.Strings(keys)
				}
			}
			saved := slices.Clone(state.Bytes())
			x := newTestExtractor(t)
			err := x.LoadState(state)
			if tc.want == "" {
				if err != nil {
					t.Fatal(err)
				}
				if again := encodeExtractor(t, x); !bytes.Equal(again, saved) {
					t.Fatal("accepted state re-encodes to other bytes")
				}
				return
			}
			if !errors.Is(err, persist.ErrCorrupt) || !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("LoadState: %v, want a corrupt-state error saying %q", err, tc.want)
			}
		})
	}
}

// FuzzExtractorState: the closed-day history is outside input (it is read
// back from a snapshot file). Arbitrary bytes after a valid head must be
// refused, or loaded into state that SaveState writes back as exactly the
// bytes LoadState consumed. The corpus is seeded with the histories of
// real states.
func FuzzExtractorState(f *testing.F) {
	users := []string{"alice", "bob"}
	newX := func(tb testing.TB) *Extractor {
		x, err := NewExtractor(users, 0, 9)
		if err != nil {
			tb.Fatal(err)
		}
		return x
	}
	var head bytes.Buffer
	if _, err := newX(f).SaveHead(&head); err != nil {
		f.Fatal(err)
	}
	for _, days := range []cert.Day{1, 4, 10} {
		x := newX(f)
		for d := cert.Day(0); d < days; d++ {
			if err := x.Consume(d, stateTestEvents(d)); err != nil {
				f.Fatal(err)
			}
		}
		var xhead bytes.Buffer
		if _, err := x.SaveHead(&xhead); err != nil {
			f.Fatal(err)
		}
		f.Add(encodeExtractor(f, x)[xhead.Len():])
	}
	f.Add([]byte{})
	f.Fuzz(func(t *testing.T, history []byte) {
		state := append(slices.Clone(head.Bytes()), history...)
		in := bytes.NewReader(state)
		x := newX(t)
		if err := x.LoadState(in); err != nil {
			return
		}
		if again := encodeExtractor(t, x); !bytes.Equal(again, state[:len(state)-in.Len()]) {
			t.Fatalf("accepted state re-encodes differently (%d bytes read, %d written)", len(state)-in.Len(), len(again))
		}
	})
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
