package serve

import (
	"bytes"
	"encoding/binary"
	"hash/crc32"
	"io/fs"
	"maps"
	"os"
	"path/filepath"
	"testing"

	"acobe/internal/audit"
	"acobe/internal/persist"
	"acobe/internal/testkit"
)

// The retired plain form is what a data directory held when it was written
// with the audit trail off: version-1 WAL segments (a 16-byte header with
// no chain link, and no seals), version-3 snapshots (no chain head, no
// signature) and version-1 manifests (no chain heads, no signature). These
// helpers rewrite a directory the current writer produced into that form,
// file family by file family, so tests can require it refused by name.

// plainSegments rewrites every WAL segment under dir in the plain form: a
// version-1 header, every frame but the seals and receipts, and whatever
// trailing bytes did not frame. A segment whose header does not parse is
// left as it is.
func plainSegments(t *testing.T, dir string) {
	t.Helper()
	files, err := listDir(filepath.Join(dir, "wal"), "wal-", ".log")
	if err != nil {
		t.Fatal(err)
	}
	for _, f := range files {
		data, err := os.ReadFile(f.path)
		if err != nil {
			t.Fatal(err)
		}
		seq, frames, goodLen, ok := parseSegment(data)
		if !ok {
			continue
		}
		out := binary.LittleEndian.AppendUint32([]byte(walMagic), 1)
		out = binary.LittleEndian.AppendUint64(out, seq)
		for _, fr := range frames {
			if typ := fr.payload[0]; typ != recSeal && typ != recReceipt {
				out = append(out, data[fr.off:fr.off+8+len(fr.payload)]...)
			}
		}
		if err := os.WriteFile(f.path, append(out, data[goodLen:]...), 0o644); err != nil {
			t.Fatal(err)
		}
	}
}

// plainSnapshots rewrites every snapshot in dir in the version-3 form: the
// header without its chain head, the same body, a version-3 trailer and a
// checksum, no signature. A file the current header codec does not decode
// is left as it is.
func plainSnapshots(t *testing.T, dir string) {
	t.Helper()
	files, err := listDir(dir, "snapshot-", snapSuffix)
	if err != nil {
		t.Fatal(err)
	}
	for _, f := range files {
		data, err := os.ReadFile(f.path)
		if err != nil {
			t.Fatal(err)
		}
		pr := persist.NewReader(bytes.NewReader(data))
		h := decodeSnapHeader(pr)
		if pr.Err() != nil {
			continue
		}
		var cur, out bytes.Buffer
		h.encode(persist.NewWriter(&cur))
		pw := persist.NewWriter(&out)
		pw.Magic(snapMagic, 3)
		pw.I64(int64(h.day))
		pw.U64(h.pos.seg)
		pw.I64(h.pos.off)
		// The body between the header and the trailer, checksum and
		// signature.
		out.Write(data[cur.Len() : len(data)-audit.SigSize-4-8])
		pw.Magic(snapTrailer, 3)
		img := binary.LittleEndian.AppendUint32(out.Bytes(), crc32.ChecksumIEEE(out.Bytes()))
		if err := os.WriteFile(f.path, img, 0o644); err != nil {
			t.Fatal(err)
		}
	}
}

// plainManifests rewrites every manifest in dir in the version-1 form:
// shard count, day and batch high-water mark, then the checksum. A file
// that does not decode is left as it is.
func plainManifests(t *testing.T, dir string) {
	t.Helper()
	files, err := listDir(dir, manifestPrefix, manifestSuffix)
	if err != nil {
		t.Fatal(err)
	}
	for _, f := range files {
		data, err := os.ReadFile(f.path)
		if err != nil {
			t.Fatal(err)
		}
		m, err := decodeManifest(data)
		if err != nil {
			continue
		}
		var body bytes.Buffer
		pw := persist.NewWriter(&body)
		pw.Magic(manifestMagic, 1)
		pw.Int(m.shards)
		pw.I64(int64(m.day))
		pw.U64(m.batchHWM)
		pw.Magic(manifestMagic, 1)
		img := binary.LittleEndian.AppendUint32(body.Bytes(), crc32.ChecksumIEEE(body.Bytes()))
		if err := os.WriteFile(f.path, img, 0o644); err != nil {
			t.Fatal(err)
		}
	}
}

// plainCopy copies pc's directory, audit key included, and rewrites every
// WAL segment, snapshot and manifest of the copy in the plain form.
func plainCopy(t *testing.T, pc PersistConfig) PersistConfig {
	t.Helper()
	src := pc.Dir
	pc.Dir = t.TempDir()
	if err := testkit.CopyTree(src, pc.Dir); err != nil {
		t.Fatal(err)
	}
	plainSegments(t, pc.Dir)
	plainSnapshots(t, pc.Dir)
	plainManifests(t, pc.Dir)
	return pc
}

// plainRefusal is what Open and VerifyAudit name when they refuse a
// plain-form directory: the newest manifest and its version, both read
// before any stream, or else the first segment of shard 0's stream and
// its version.
func plainRefusal(t *testing.T, dir string) []string {
	t.Helper()
	mans, err := listManifests(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(mans) > 0 {
		return []string{filepath.Base(mans[0].path), "manifest version 1 unsupported"}
	}
	segs, err := listSegments(filepath.Join(dir, "wal"), walShardPrefix(0))
	if err != nil || len(segs) == 0 {
		t.Fatalf("no manifest and no shard-0 segment in %s (%v)", dir, err)
	}
	return []string{filepath.Base(segs[0].path), "segment version 1 unsupported"}
}

// readTree returns every file under dir by its path relative to dir.
func readTree(t *testing.T, dir string) map[string][]byte {
	t.Helper()
	tree := make(map[string][]byte)
	err := filepath.WalkDir(dir, func(path string, d fs.DirEntry, err error) error {
		if err != nil || d.IsDir() {
			return err
		}
		data, err := os.ReadFile(path)
		rel, _ := filepath.Rel(dir, path)
		tree[rel] = data
		return err
	})
	if err != nil {
		t.Fatal(err)
	}
	return tree
}

// refusesPlainForm requires the plain form of pc's directory refused by
// Open and VerifyAudit, each naming the first retired file and its
// version, and left byte for byte as it was: a torn tail in a retired
// segment is refused with the rest, never truncated.
func refusesPlainForm(t *testing.T, cfg Config, pc PersistConfig) {
	t.Helper()
	pc = plainCopy(t, pc)
	before := readTree(t, pc.Dir)
	refuses(t, cfg, pc, plainRefusal(t, pc.Dir)...)
	if !maps.EqualFunc(before, readTree(t, pc.Dir), bytes.Equal) {
		t.Fatal("refusing the plain-form directory changed it")
	}
}

// plainFormRefused is the audit=false half of a scenario: subtest
// "audit=false" builds the scenario's directory with setup and requires its
// plain form refused (refusesPlainForm).
func plainFormRefused(t *testing.T, cfg Config, setup func(t *testing.T) PersistConfig) {
	t.Run("audit=false", func(t *testing.T) { refusesPlainForm(t, cfg, setup(t)) })
}
