package features

import (
	"bytes"
	"errors"
	"fmt"
	"math/rand"
	"sort"
	"strings"
	"testing"

	"acobe/internal/persist"
)

// TestKeySetMatchesMap runs random Add/Has sequences against a
// map[string]bool. The narrowed runs leave the hash two bits, so every key
// of a head shares one tag and probes from one of four slots: only the
// full-key comparison tells keys apart. Keys range over empty suffixes,
// suffixes with multi-byte length prefixes, and keys longer than a chunk
// that differ only in their last byte; the small alphabet makes repeats
// common, and thousands of keys grow each head's table many times. Every
// run ends by listing the set's keys per head, writing them as SaveState
// does, and reading them back into a fresh set.
func TestKeySetMatchesMap(t *testing.T) {
	const users, kinds = 3, 4
	long := bytes.Repeat([]byte{'x'}, chunkSize+100)
	for _, tc := range []struct {
		name   string
		narrow uint64
		ops    int
	}{
		{"seeded", 0, 60000},
		{"narrowed", ^uint64(3), 4000},
	} {
		t.Run(tc.name, func(t *testing.T) {
			rng := rand.New(rand.NewSource(1))
			s := NewKeySet(users, kinds)
			s.narrow = tc.narrow
			ref := map[string]bool{}
			var key []byte
			for op := 0; op < tc.ops; op++ {
				key = CandID(key, rng.Intn(users), rng.Intn(kinds))
				switch r := rng.Intn(100); {
				case r < 3: // the head alone
				case r < 5: // longer than a chunk, differing in the last byte
					key = append(key, long...)
					key = append(key, byte('a'+rng.Intn(3)))
				case r < 10: // a two-byte length prefix
					key = append(key, bytes.Repeat([]byte{'y'}, 128+rng.Intn(3))...)
				default:
					for n := rng.Intn(4); n >= 0; n-- {
						key = append(key, byte('a'+rng.Intn(6)))
					}
				}
				if rng.Intn(2) == 0 {
					if got, want := s.Add(key), !ref[string(key)]; got != want {
						t.Fatalf("op %d: Add(%q) = %v, want %v", op, key, got, want)
					}
					ref[string(key)] = true
				} else if got := s.Has(key); got != ref[string(key)] {
					t.Fatalf("op %d: Has(%q) = %v, want %v", op, key, got, ref[string(key)])
				}
			}
			if s.Len() != len(ref) {
				t.Fatalf("Len = %d, want %d", s.Len(), len(ref))
			}
			for k := range ref {
				if !s.Has([]byte(k)) {
					t.Fatalf("lost %q", k)
				}
			}
			want := groupsOf(ref, users, kinds)
			if got := keyGroups(&s, users, kinds); got != want {
				t.Fatalf("groups differ from the reference:\n got %.300s\nwant %.300s", got, want)
			}

			var buf bytes.Buffer
			pw := persist.NewWriter(&buf)
			for kind := 0; kind < kinds; kind++ {
				for u := 0; u < users; u++ {
					s.WriteKeys(pw, u, kind)
				}
			}
			if err := pw.Err(); err != nil {
				t.Fatal(err)
			}
			back := NewKeySet(users, kinds)
			back.narrow = tc.narrow
			pr := persist.NewReader(&buf)
			for kind := 0; kind < kinds; kind++ {
				for u := 0; u < users; u++ {
					back.ReadKeys(pr, u, kind)
				}
			}
			if err := pr.Err(); err != nil {
				t.Fatal(err)
			}
			if got := keyGroups(&back, users, kinds); got != want || back.Len() != len(ref) {
				t.Fatalf("read back %d keys in groups %.300s", back.Len(), got)
			}
		})
	}
}

// groupsOf renders ref's keys the way keyGroups renders a set's.
func groupsOf(ref map[string]bool, users, kinds int) string {
	groups := make([][]string, users*kinds)
	for k := range ref {
		u, kind := int(k[3]), int(k[4])
		groups[kind*users+u] = append(groups[kind*users+u], k[candPrefix:])
	}
	for _, g := range groups {
		sort.Strings(g)
	}
	return fmt.Sprint(groups)
}

func keyGroups(s *KeySet, users, kinds int) string {
	groups := make([][][]byte, users*kinds)
	for kind := 0; kind < kinds; kind++ {
		for u := 0; u < users; u++ {
			groups[kind*users+u] = s.Keys(nil, u, kind)
		}
	}
	return fmt.Sprintf("%s", groups)
}

// TestKeySetLookupsDoNotAllocate: the apply path's Has and the close
// path's Add of a key the set holds take the caller's bytes as they are.
func TestKeySetLookupsDoNotAllocate(t *testing.T) {
	s := NewKeySet(4, 2)
	key := append(CandID(nil, 3, 1), "open|local|F-1"...)
	s.Add(key)
	other := append(CandID(nil, 3, 1), "open|local|F-2"...)
	if n := testing.AllocsPerRun(100, func() {
		if !s.Has(key) || s.Has(other) || s.Add(key) {
			t.Fatal("membership changed")
		}
	}); n != 0 {
		t.Fatalf("%.1f allocations per Has/Has/Add round", n)
	}
}

// TestKeySetReadKeysRefusesSecondList: a second list for a head is
// refused, whatever it holds. (A list out of order is the extractors'
// loader tests' case.)
func TestKeySetReadKeysRefusesSecondList(t *testing.T) {
	var buf bytes.Buffer
	pw := persist.NewWriter(&buf)
	pw.Strings([]string{"a", "b"})
	pw.Strings([]string{"c"})
	s := NewKeySet(2, 3)
	pr := persist.NewReader(&buf)
	s.ReadKeys(pr, 1, 2)
	s.ReadKeys(pr, 1, 2)
	if err := pr.Err(); !errors.Is(err, persist.ErrCorrupt) || !strings.Contains(err.Error(), "listed twice") {
		t.Fatalf("error %v, want a corrupt-state error naming a head listed twice", err)
	}
	if s.Len() != 2 {
		t.Fatalf("Len = %d after the refusal, want 2", s.Len())
	}
}
