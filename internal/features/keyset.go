package features

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"hash/maphash"
	"slices"

	"acobe/internal/persist"
)

// KeySet is an extractor's first-seen history: every candidate ID
// ([user:4][kind:1]key, CandID) a closed day judged new, for every user and
// kind, in one exact set that holds no pointer per key.
//
// Key bytes live in an arena of fixed-size chunks, each key a uvarint
// length and then the bytes; a key longer than a chunk gets a chunk of its
// own. A chunk never moves, so a key is addressed by (chunk, offset) for
// good, the arena grows without a doubling copy, and at most one chunk is
// partly filled. Each (user, kind) head has an open-addressing table of
// uint64 slots over the arena: a slot packs a key's address with a tag cut
// from its hash, and a match always compares the full key bytes, so
// membership is never decided by a hash. The table stands for the head, so
// the arena holds only the bytes after it. Tables are per head because a
// user's events arrive together and the user's tables stay in cache across
// them, because a table grows by rehashing one head's keys, never the whole
// history at once, and because a head's keys are one sorted list on disk.
// Keys are ingest fields an attacker may choose, so the hash is maphash
// under a seed drawn per set, as for Go maps; nothing written to disk
// depends on it.
//
// A KeySet is not safe for concurrent use.
type KeySet struct {
	seed maphash.Seed
	// narrow clears hash bits: always zero, except in tests that force
	// every key onto a few slots and one tag.
	narrow uint64
	chunks [][]byte
	// cur is the chunk keys are appended to.
	cur int
	// tables[u×kinds+kind] is head (u, kind).
	kinds  int
	tables []keyTable
	n      int
	// sorted is WriteKeys' scratch.
	sorted [][]byte
}

// keyTable is one head's slots; a zero slot is empty.
type keyTable struct {
	slots []uint64
	n     int
}

// Slot layout: | tag:24 | chunk+1:24 | offset:16 |. 2^24−1 chunks of at
// least 64 KiB bound a set at 1 TiB of keys.
const (
	chunkSize  = 1 << 16
	offBits    = 16
	chunkBits  = 24
	tagShift   = offBits + chunkBits
	chunkMask  = 1<<chunkBits - 1
	maxChunkID = chunkMask - 1
	minSlots   = 8
	// maxPresize bounds how many keys of a list ReadKeys sizes a table for
	// before reading them.
	maxPresize = 1 << 12
)

// NewKeySet returns an empty set of the candidate IDs of users users and
// kinds kinds.
func NewKeySet(users, kinds int) KeySet {
	return KeySet{seed: maphash.MakeSeed(), kinds: kinds, tables: make([]keyTable, users*kinds)}
}

// Len returns the number of keys in the set.
func (s *KeySet) Len() int { return s.n }

// Count returns how many keys user u holds of kind.
func (s *KeySet) Count(u, kind int) int { return s.tables[s.at(u, kind)].n }

// Has reports whether the set holds the candidate ID id.
func (s *KeySet) Has(id []byte) bool {
	t := &s.tables[s.at(idHead(id))]
	if t.n == 0 {
		return false
	}
	key := id[candPrefix:]
	_, ok := s.find(t, key, s.hash(key))
	return ok
}

// Add puts the candidate ID id in the set, copying its key bytes into the
// arena, and reports whether it was new. It allocates only when the arena
// or the head's table grows.
func (s *KeySet) Add(id []byte) bool {
	t := s.table(s.at(idHead(id)))
	key := id[candPrefix:]
	h := s.hash(key)
	i, ok := s.find(t, key, h)
	if ok {
		return false
	}
	ref, rec := s.reserve(len(key))
	copy(rec, key)
	s.place(t, i, h, ref)
	return true
}

// at returns the index in s.tables of head (u, kind).
func (s *KeySet) at(u, kind int) int {
	if kind >= s.kinds {
		panic("features: key set given a kind it was not made for")
	}
	return u*s.kinds + kind
}

// table returns table i, ready for an insert.
func (s *KeySet) table(i int) *keyTable {
	t := &s.tables[i]
	if t.slots == nil {
		t.slots = make([]uint64, minSlots)
	}
	return t
}

func (s *KeySet) hash(key []byte) uint64 { return maphash.Bytes(s.seed, key) &^ s.narrow }

// find returns the slot of t holding key, or, when t lacks it, the empty
// slot that ends its probe.
func (s *KeySet) find(t *keyTable, key []byte, h uint64) (int, bool) {
	mask := len(t.slots) - 1
	tag := h >> tagShift
	for i := int(h) & mask; ; i = (i + 1) & mask {
		v := t.slots[i]
		if v == 0 {
			return i, false
		}
		if v>>tagShift == tag && bytes.Equal(s.key(v), key) {
			return i, true
		}
	}
}

// place fills t's empty slot i, which ends the probe of hash h, with the
// key at ref, first doubling t — rehashing its keys from the arena — when
// it would pass three quarters full.
func (s *KeySet) place(t *keyTable, i int, h, ref uint64) {
	if 4*(t.n+1) > 3*len(t.slots) {
		old := t.slots
		t.slots = make([]uint64, 2*len(old))
		for _, v := range old {
			if v != 0 {
				t.slots[free(t.slots, s.hash(s.key(v)))] = v
			}
		}
		i = free(t.slots, h)
	}
	t.slots[i] = h>>tagShift<<tagShift | ref
	t.n++
	s.n++
}

// free returns the empty slot that ends the probe of hash h.
func free(slots []uint64, h uint64) int {
	mask := len(slots) - 1
	i := int(h) & mask
	for slots[i] != 0 {
		i = (i + 1) & mask
	}
	return i
}

// reserve appends room for a key of size bytes to the arena and returns
// the key's address and the bytes to fill.
func (s *KeySet) reserve(size int) (ref uint64, rec []byte) {
	var head [binary.MaxVarintLen64]byte
	hn := binary.PutUvarint(head[:], uint64(size))
	need := hn + size
	c := s.cur
	switch {
	case need > chunkSize:
		c = len(s.chunks)
		s.chunks = append(s.chunks, make([]byte, 0, need))
	case len(s.chunks) == 0 || len(s.chunks[c])+need > chunkSize:
		c = len(s.chunks)
		s.cur = c
		s.chunks = append(s.chunks, make([]byte, 0, chunkSize))
	}
	if c > maxChunkID {
		panic("features: key set arena outgrew its chunk addresses")
	}
	chunk := s.chunks[c]
	off := len(chunk)
	chunk = append(chunk, head[:hn]...)
	chunk = chunk[:len(chunk)+size]
	s.chunks[c] = chunk
	return uint64(c+1)<<offBits | uint64(off), chunk[off+hn:]
}

// key returns the bytes of the key slot v addresses.
func (s *KeySet) key(v uint64) []byte {
	rec := s.chunks[(v>>offBits&chunkMask)-1][v&(1<<offBits-1):]
	if n := rec[0]; n < 0x80 {
		return rec[1 : 1+n]
	}
	n, w := binary.Uvarint(rec)
	return rec[w : w+int(n)]
}

// Keys returns the keys user u holds of kind, without their heads, in byte
// order, appended to buf[:0]. The bytes are the set's own.
func (s *KeySet) Keys(buf [][]byte, u, kind int) [][]byte {
	buf = buf[:0]
	for _, v := range s.tables[s.at(u, kind)].slots {
		if v != 0 {
			buf = append(buf, s.key(v))
		}
	}
	slices.SortFunc(buf, bytes.Compare)
	return buf
}

// WriteKeys writes the keys user u holds of kind, without their heads, as
// persist.Writer.Strings writes a sorted list.
func (s *KeySet) WriteKeys(pw *persist.Writer, u, kind int) {
	s.sorted = s.Keys(s.sorted, u, kind)
	pw.U64(uint64(len(s.sorted)))
	for _, k := range s.sorted {
		pw.Bytes(k)
	}
}

// ReadKeys reads a key list as WriteKeys writes it — a count, then each
// key length-prefixed — straight into the arena, every key under the head
// (u, kind). The list is outside input: a list for a head that holds keys
// already, or a key out of order or repeated, fails pr with
// persist.ErrCorrupt, since the writer writes each head once, sorted. It
// returns how many keys the list claimed.
func (s *KeySet) ReadKeys(pr *persist.Reader, u, kind int) int {
	n := pr.Len()
	if pr.Err() != nil || n == 0 {
		return n
	}
	t := &s.tables[s.at(u, kind)]
	if t.n > 0 {
		pr.Fail(fmt.Errorf("%w: first-seen keys of user %d, kind %d listed twice", persist.ErrCorrupt, u, kind))
		return n
	}
	// Size the table for the list at once, as the inserts would grow it,
	// up to a bound: the count is outside input too.
	size := minSlots
	for 4*min(n, maxPresize) > 3*size {
		size *= 2
	}
	t.slots = make([]uint64, size)
	var prev []byte
	for i := 0; i < n; i++ {
		size := pr.Len()
		if pr.Err() != nil {
			break
		}
		ref, rec := s.reserve(size)
		if pr.ReadInto(rec); pr.Err() != nil {
			break
		}
		if i > 0 && bytes.Compare(prev, rec) >= 0 {
			pr.Fail(fmt.Errorf("%w: first-seen keys of user %d, kind %d out of order or repeated", persist.ErrCorrupt, u, kind))
			break
		}
		h := s.hash(rec)
		s.place(t, free(t.slots, h), h, ref)
		prev = rec
	}
	return n
}
