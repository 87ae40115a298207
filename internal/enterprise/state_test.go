package enterprise

import (
	"bytes"
	"crypto/sha256"
	"errors"
	"fmt"
	"slices"
	"strings"
	"testing"

	"acobe/internal/cert"
	"acobe/internal/logstore"
	"acobe/internal/persist"
)

func encodeEntExtractor(t testing.TB, x *Extractor) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := x.SaveState(&buf); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

func TestEnterpriseExtractorStateRoundTrip(t *testing.T) {
	cfg := tinyEntConfig()
	cfg.End = cfg.Start + 14
	gen, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	ids := gen.EmployeeIDs()
	start, end := gen.Span()

	newX := func() *Extractor {
		x, err := NewExtractor(ids, start, end)
		if err != nil {
			t.Fatal(err)
		}
		return x
	}
	full, mid := newX(), newX()
	var days []cert.Day
	byDay := map[cert.Day][]logstore.Record{}
	err = gen.Stream(func(d cert.Day, recs []logstore.Record) error {
		days = append(days, d)
		byDay[d] = recs
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	split := len(days) / 2
	for i, d := range days {
		if err := full.Consume(d, byDay[d]); err != nil {
			t.Fatal(err)
		}
		if i < split {
			if err := mid.Consume(d, byDay[d]); err != nil {
				t.Fatal(err)
			}
		}
	}

	state := encodeEntExtractor(t, mid)
	restored := newX()
	if err := restored.LoadState(bytes.NewReader(state)); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(state, encodeEntExtractor(t, restored)) {
		t.Fatal("restored extractor re-encodes to different bytes")
	}
	for _, d := range days[split:] {
		if err := restored.Consume(d, byDay[d]); err != nil {
			t.Fatal(err)
		}
	}
	if !bytes.Equal(encodeEntExtractor(t, full), encodeEntExtractor(t, restored)) {
		t.Error("resumed extractor state differs from uninterrupted run")
	}

	// Truncated state must error, never panic.
	for _, cut := range []int{0, 7, len(state) / 3, len(state) - 1} {
		fresh := newX()
		if err := fresh.LoadState(bytes.NewReader(state[:cut])); err == nil {
			t.Errorf("no error for state truncated at %d bytes", cut)
		}
	}
}

// TestLoadStateRefusesUnwritable: see the CERT extractor's test of the same
// name. Each case is a valid head followed by a hand-written history: five
// categories, by default in order, holding nothing.
func TestLoadStateRefusesUnwritable(t *testing.T) {
	type held struct {
		u    int
		keys []string
	}
	type category struct {
		name  string
		users []held
	}
	ids := []string{"e1", "e2", "e3"}
	newX := func() *Extractor {
		x, err := NewExtractor(ids, 0, 3)
		if err != nil {
			t.Fatal(err)
		}
		return x
	}
	var head bytes.Buffer
	if _, err := newX().SaveHead(&head); err != nil {
		t.Fatal(err)
	}
	in := func(edit func(cats []category) []category) []category {
		cats := make([]category, len(seenCategories))
		for i, name := range seenCategories {
			cats[i].name = name
		}
		return edit(cats)
	}
	for _, tc := range []struct {
		name string
		cats []category
		want string
	}{
		{"written", in(func(c []category) []category {
			c[2].users = []held{{0, []string{"a.com", "b.com"}}, {2, []string{"a.com"}}}
			return c
		}), ""},
		{"four categories", in(func(c []category) []category { return c[:4] }), "has 4 categories, want 5"},
		{"repeated category", in(func(c []category) []category { c[1].name = "command"; return c }), `category "command" repeated`},
		{"categories out of order", in(func(c []category) []category { c[0], c[1] = c[1], c[0]; return c }), `category "config" where "command" belongs`},
		{"unknown category", in(func(c []category) []category { c[4].name = "resources"; return c }), `unknown first-seen category "resources"`},
		{"user out of range", in(func(c []category) []category { c[3].users = []held{{3, []string{"f"}}}; return c }), "names user index 3 of 3"},
		{"repeated user", in(func(c []category) []category {
			c[3].users = []held{{1, []string{"f"}}, {1, []string{"g"}}}
			return c
		}), "file history lists user 1 after user 1"},
		{"descending users", in(func(c []category) []category {
			c[3].users = []held{{2, []string{"f"}}, {0, []string{"f"}}}
			return c
		}), "file history lists user 0 after user 2"},
		{"empty key list", in(func(c []category) []category { c[0].users = []held{{0, nil}}; return c }), "command history lists user 0 with no objects"},
		{"keys out of order", in(func(c []category) []category {
			c[2].users = []held{{1, []string{"b.com", "a.com"}}}
			return c
		}), "keys of user 1, kind 2 out of order or repeated"},
		{"repeated key", in(func(c []category) []category {
			c[2].users = []held{{1, []string{"a.com", "a.com"}}}
			return c
		}), "keys of user 1, kind 2 out of order or repeated"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			state := bytes.NewBuffer(slices.Clone(head.Bytes()))
			pw := persist.NewWriter(state)
			pw.U64(uint64(len(tc.cats)))
			for _, c := range tc.cats {
				pw.String(c.name)
				pw.U64(uint64(len(c.users)))
				for _, h := range c.users {
					pw.Int(h.u)
					pw.Strings(h.keys)
				}
			}
			saved := slices.Clone(state.Bytes())
			x := newX()
			err := x.LoadState(state)
			if tc.want == "" {
				if err != nil {
					t.Fatal(err)
				}
				if again := encodeEntExtractor(t, x); !bytes.Equal(again, saved) {
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

// FuzzExtractorState: see the CERT extractor's fuzz target of the same
// name. The corpus is seeded with the histories of real states.
func FuzzExtractorState(f *testing.F) {
	ids, start, byDay := genDays(f, 4, 6)
	end := start + cert.Day(len(byDay)-1)
	newX := func(tb testing.TB) *Extractor {
		x, err := NewExtractor(ids, start, end)
		if err != nil {
			tb.Fatal(err)
		}
		return x
	}
	var head bytes.Buffer
	if _, err := newX(f).SaveHead(&head); err != nil {
		f.Fatal(err)
	}
	for _, days := range []int{1, 3, len(byDay)} {
		x := newX(f)
		for i, recs := range byDay[:days] {
			if err := x.Consume(start+cert.Day(i), recs); err != nil {
				f.Fatal(err)
			}
		}
		var xhead bytes.Buffer
		if _, err := x.SaveHead(&xhead); err != nil {
			f.Fatal(err)
		}
		f.Add(encodeEntExtractor(f, x)[xhead.Len():])
	}
	f.Add([]byte{})
	f.Fuzz(func(t *testing.T, history []byte) {
		state := append(slices.Clone(head.Bytes()), history...)
		in := bytes.NewReader(state)
		x := newX(t)
		if err := x.LoadState(in); err != nil {
			return
		}
		if again := encodeEntExtractor(t, x); !bytes.Equal(again, state[:len(state)-in.Len()]) {
			t.Fatalf("accepted state re-encodes differently (%d bytes read, %d written)", len(state)-in.Len(), len(again))
		}
	})
}

// TestExtractorStateDigest pins the closed-day state bytes of a fixed
// 100-employee, 15-day stream, saved and restored into a fresh extractor
// after its eighth day: see the CERT extractor's test of the same name.
func TestExtractorStateDigest(t *testing.T) {
	ids, start, byDay := genDays(t, 100, 15)
	end := start + cert.Day(len(byDay)-1)
	x, err := NewExtractor(ids, start, end)
	if err != nil {
		t.Fatal(err)
	}
	const (
		wantMid = "686dbc3c94a957fbfffd34deceb1e600cd83e1c3bcad85729af32f96d7e162cc"
		wantEnd = "a53fec5300396a9685b06d7a2c42eefa5be7aac9cbb6ba5e2d8cf17607f92554"
	)
	for i, recs := range byDay {
		if i == 8 {
			state := encodeEntExtractor(t, x)
			if got := fmt.Sprintf("%x", sha256.Sum256(state)); got != wantMid {
				t.Errorf("state after eight days: sha256 %s, want %s", got, wantMid)
			}
			if x, err = NewExtractor(ids, start, end); err != nil {
				t.Fatal(err)
			}
			if err := x.LoadState(bytes.NewReader(state)); err != nil {
				t.Fatal(err)
			}
		}
		if err := x.Consume(start+cert.Day(i), recs); err != nil {
			t.Fatal(err)
		}
	}
	if got := fmt.Sprintf("%x", sha256.Sum256(encodeEntExtractor(t, x))); got != wantEnd {
		t.Errorf("state after %d days: sha256 %s, want %s", len(byDay), got, wantEnd)
	}
}
