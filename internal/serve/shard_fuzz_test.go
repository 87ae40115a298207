package serve

import (
	"bytes"
	"encoding/binary"
	"hash/crc32"
	"testing"

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

// fuzzManifestSeed encodes a valid manifest image.
func fuzzManifestSeed(shards int, day cert.Day, hwm uint64) []byte {
	var body bytes.Buffer
	pw := persist.NewWriter(&body)
	pw.Magic(manifestMagic, manifestVersion)
	pw.Int(shards)
	pw.I64(int64(day))
	pw.U64(hwm)
	pw.Magic(manifestMagic, manifestVersion)
	var sum [4]byte
	binary.LittleEndian.PutUint32(sum[:], crc32.ChecksumIEEE(body.Bytes()))
	return append(body.Bytes(), sum[:]...)
}

// FuzzManifestDecode throws arbitrary bytes at the manifest decoder — the
// first thing sharded recovery reads from disk. It must never panic, and
// anything it accepts must survive an exact re-encode/re-decode round trip
// (the decoder's acceptance set is exactly the encoder's image).
func FuzzManifestDecode(f *testing.F) {
	f.Add(fuzzManifestSeed(3, 29, 0))
	f.Add(fuzzManifestSeed(1, 0, 7))
	f.Add(fuzzManifestSeed(8, 1<<40, 1<<50))
	good := fuzzManifestSeed(4, 100, 12)
	torn := good[:len(good)-3]
	f.Add(torn)
	flipped := bytes.Clone(good)
	flipped[len(flipped)/2] ^= 0xff
	f.Add(flipped)
	f.Add([]byte{})
	f.Add([]byte("ACMF"))
	f.Fuzz(func(t *testing.T, data []byte) {
		m, err := decodeManifest(data)
		if err != nil {
			return
		}
		if m.shards < 1 {
			t.Fatalf("decoder accepted %d shards", m.shards)
		}
		if m.audited {
			// Audit manifests carry a signature; round-tripping them needs
			// the signing key, which the v1 seed encoder does not have.
			return
		}
		re := fuzzManifestSeed(m.shards, m.day, m.batchHWM)
		m2, err := decodeManifest(re)
		if err != nil || m2.shards != m.shards || m2.day != m.day || m2.batchHWM != m.batchHWM {
			t.Fatalf("round trip of accepted manifest (%d, %v, %d) failed: (%d, %v, %d, %v)",
				m.shards, m.day, m.batchHWM, m2.shards, m2.day, m2.batchHWM, err)
		}
	})
}
