package serve

import (
	"bytes"
	"crypto/ed25519"
	"encoding/binary"
	"hash/crc32"
	"slices"
	"testing"

	"acobe/internal/audit"
	"acobe/internal/cert"
	"acobe/internal/persist"
)

// FuzzShardRouter throws arbitrary user IDs and shard counts at the
// consistent-hash router. The contract: never panic, always return a shard
// in range, and be a pure function of (user, shard count) — the same
// router and a rebuilt one must agree, because recovery rebuilds the ring
// from scratch and must route every replayed user to the shard that logged
// it.
func FuzzShardRouter(f *testing.F) {
	f.Add("u1", 1)
	f.Add("u1", 3)
	f.Add("", 8)
	f.Add("DTAA/ABC0001", 16)
	f.Add("\x00\xff weird\tuser\n", 5)
	f.Fuzz(func(t *testing.T, user string, n int) {
		if n < 1 || n > 64 {
			n = 1 + (n&0x7fffffff)%64
		}
		r := newRouter(n)
		k := r.shardOf(user)
		if k < 0 || k >= n {
			t.Fatalf("shardOf(%q) with %d shards = %d, out of range", user, n, k)
		}
		if k2 := r.shardOf(user); k2 != k {
			t.Fatalf("shardOf(%q) not deterministic: %d then %d", user, k, k2)
		}
		if k2 := newRouter(n).shardOf(user); k2 != k {
			t.Fatalf("rebuilt router routes %q to %d, original to %d", user, k2, k)
		}
		if n == 1 && k != 0 {
			t.Fatalf("single-shard router sent %q to shard %d", user, k)
		}
	})
}

// fuzzManifestKey signs the manifest fuzz corpus.
var fuzzManifestKey = ed25519.NewKeyFromSeed(make([]byte, ed25519.SeedSize))

// fuzzManifestSeed encodes a valid manifest image, shard k's chain head
// filled with k.
func fuzzManifestSeed(f *testing.F, shards int, day cert.Day, hwm uint64) []byte {
	m := manifestInfo{shards: shards, day: day, batchHWM: hwm, heads: make([]audit.Head, shards)}
	for k := range m.heads {
		m.heads[k][0] = byte(k)
	}
	img, err := encodeManifest(m, fuzzManifestKey)
	if err != nil {
		f.Fatal(err)
	}
	return img
}

// FuzzManifestDecode throws arbitrary bytes at the manifest decoder — the
// first thing recovery reads from disk. It must never panic, and anything
// it accepts must survive a re-encode/re-decode round trip: the same
// shards, day, high-water mark and chain heads, under a signature that
// verifies (the decoder's acceptance set is the encoder's image).
func FuzzManifestDecode(f *testing.F) {
	f.Add(fuzzManifestSeed(f, 3, 29, 0))
	f.Add(fuzzManifestSeed(f, 1, 0, 7))
	f.Add(fuzzManifestSeed(f, 8, 1<<40, 1<<50))
	good := fuzzManifestSeed(f, 4, 100, 12)
	torn := good[:len(good)-3]
	f.Add(torn)
	flipped := bytes.Clone(good)
	flipped[len(flipped)/2] ^= 0xff
	f.Add(flipped)
	f.Add([]byte{})
	f.Add([]byte("ACMF"))
	// The retired version 1: no chain heads, no signature.
	var v1 bytes.Buffer
	pw := persist.NewWriter(&v1)
	pw.Magic(manifestMagic, 1)
	pw.Int(3)
	pw.I64(29)
	pw.U64(0)
	pw.Magic(manifestMagic, 1)
	f.Add(binary.LittleEndian.AppendUint32(v1.Bytes(), crc32.ChecksumIEEE(v1.Bytes())))
	pub := fuzzManifestKey.Public().(ed25519.PublicKey)
	f.Fuzz(func(t *testing.T, data []byte) {
		m, err := decodeManifest(data)
		if err != nil {
			return
		}
		if m.shards < 1 || len(m.heads) != m.shards {
			t.Fatalf("decoder accepted %d shards with %d heads", m.shards, len(m.heads))
		}
		re, err := encodeManifest(m, fuzzManifestKey)
		if err != nil {
			t.Fatal(err)
		}
		m2, err := decodeManifest(re)
		if err != nil || m2.shards != m.shards || m2.day != m.day || m2.batchHWM != m.batchHWM ||
			!slices.Equal(m2.heads, m.heads) || !m2.verifySig(pub) {
			t.Fatalf("round trip of accepted manifest (%d, %v, %d) failed: (%d, %v, %d, %v)",
				m.shards, m.day, m.batchHWM, m2.shards, m2.day, m2.batchHWM, err)
		}
	})
}
