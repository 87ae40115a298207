package serve

import (
	"crypto/ed25519"
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"hash/crc32"
	"log/slog"
	"os"
	"path/filepath"
	"slices"
	"strconv"
	"strings"
	"testing"

	"acobe/internal/audit"
	"acobe/internal/cert"
	"acobe/internal/testkit"
)

// The agreement table: Open and VerifyAudit read one data directory, so a
// damaged directory must get one verdict from both. Over every case of the
// tamper matrices (structural, sharded, CRC-fixup, splice, renamed
// manifest) and a two-generation directory whose newest generation is
// damaged or renamed, each pair of outcomes is exactly one of:
//
//   - both accept;
//   - both refuse, naming the damaged file;
//   - VerifyAudit refuses naming the damaged file, and Open accepts only by
//     passing over exactly that file: a cut of a newer generation than the
//     one it loaded, or the torn tail of a stream's final segment, which
//     recovery truncates.

// agreeCase is one damaged copy of a fixture directory.
type agreeCase struct {
	name   string
	target string // base name of the damaged file
	dir    string
	// refuse requires both calls to refuse, not merely to agree; passOver
	// requires VerifyAudit to refuse and Open to pass over the file.
	refuse, passOver bool
}

// checkAgree runs VerifyAudit and then Open over c.dir (Open may truncate
// a torn tail, so it goes second) and fails t unless the two outcomes are
// one of the table's.
func checkAgree(t *testing.T, cfg Config, pc PersistConfig, pub ed25519.PublicKey, c agreeCase) {
	t.Helper()
	pc.Dir = c.dir
	finalSeg := isFinalSegment(t, c.dir, c.target)
	_, verr := VerifyAudit(c.dir, pub)
	s, info, oerr := Open(cfg, pc)
	if oerr == nil {
		shutdown(t, s)
	}
	names := func(err error) bool { return err != nil && strings.Contains(err.Error(), c.target) }
	switch {
	case verr == nil && oerr == nil && !c.refuse && !c.passOver:
		return
	case verr != nil && oerr != nil && !c.passOver:
		if !names(verr) || !names(oerr) {
			t.Fatalf("%s: both refuse, but not both name %s:\nVerifyAudit: %v\nOpen: %v", c.name, c.target, verr, oerr)
		}
		return
	case verr != nil && oerr == nil && !c.refuse && names(verr):
		if day, ok := cutDay(c.target); ok && info.SnapshotLoaded && info.SnapshotDay < day &&
			slices.ContainsFunc(info.SkippedCuts, func(e string) bool { return strings.HasPrefix(e, c.target+":") }) {
			return // fell back past the named cut, and says so
		}
		if finalSeg && info.TornBytes > 0 {
			return // truncated the named segment's torn tail
		}
		t.Fatalf("%s: VerifyAudit refuses (%v) and Open accepts (%+v) without passing over %s", c.name, verr, info, c.target)
	}
	t.Fatalf("%s: the two readers disagree about %s:\nVerifyAudit: %v\nOpen: %v", c.name, c.target, verr, oerr)
}

// cutDay is the day a snapshot or manifest file name carries.
func cutDay(name string) (cert.Day, bool) {
	for _, suffix := range []string{snapSuffix, manifestSuffix} {
		if stem, ok := strings.CutSuffix(name, suffix); ok {
			n, err := strconv.ParseInt(stem[strings.LastIndexByte(stem, '-')+1:], 10, 64)
			return cert.Day(n), err == nil
		}
	}
	return 0, false
}

// isFinalSegment reports whether name is the last segment of its stream
// in dir.
func isFinalSegment(t *testing.T, dir, name string) bool {
	t.Helper()
	if !strings.HasPrefix(name, "wal-") {
		return false
	}
	prefix := name[:strings.LastIndexByte(name, '-')+1]
	segs, err := listSegments(filepath.Join(dir, "wal"), prefix)
	if err != nil {
		t.Fatal(err)
	}
	return len(segs) > 0 && filepath.Base(segs[len(segs)-1].path) == name
}

// cloneWith copies fixture and applies edit to the copy.
func cloneWith(t *testing.T, fixture string, edit func(dir string) string) (dir, target string) {
	t.Helper()
	dir = t.TempDir()
	if err := testkit.CopyTree(fixture, dir); err != nil {
		t.Fatal(err)
	}
	return dir, edit(dir)
}

// tampered is cloneWith for one testkit.Tamper.
func tampered(t *testing.T, fixture string, tm testkit.Tamper) (string, string) {
	return cloneWith(t, fixture, func(dir string) string {
		path, err := tm.Apply(dir)
		if err != nil {
			t.Fatal(err)
		}
		return filepath.Base(path)
	})
}

// forgeSnapshot flips one bit of a snapshot's ingested-events counter and
// re-stamps the body checksum without re-signing: every decode and the
// checksum pass, and only the signature can object.
func forgeSnapshot(t *testing.T, path string) {
	t.Helper()
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	data[4+4+8+8+8+8+audit.HeadSize+1] ^= 0x01 // the header, then ingested
	body := data[:len(data)-4-audit.SigSize]
	binary.LittleEndian.PutUint32(data[len(body):], crc32.ChecksumIEEE(body))
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
}

func TestOpenAndVerifyAgree(t *testing.T) {
	auditOpen := func(shards int) (Config, PersistConfig) {
		cfg := persistCfg()
		cfg.Shards = shards
		return cfg, auditPersist()
	}

	t.Run("structural", func(t *testing.T) {
		fixture, pub := auditFixture(t, 1, 14)
		names := segmentNames(t, fixture, walShardPrefix(0))
		mid, final := names[len(names)-2], names[len(names)-1]
		st, err := os.Stat(filepath.Join(fixture, "wal", final))
		if err != nil {
			t.Fatal(err)
		}
		cfg, pc := auditOpen(1)
		for _, tc := range []struct {
			name string
			file string
			off  int64
		}{
			{"header magic", mid, 0},
			{"header version", mid, 4},
			{"header sequence", mid, 8},
			{"header chain link", mid, int64(walHeaderSize-audit.HeadSize) + 3},
			{"first frame length", mid, int64(walHeaderSize)},
			{"first frame crc", mid, int64(walHeaderSize) + 4},
			{"first frame record type", mid, int64(walHeaderSize) + 8},
			{"first frame payload", mid, int64(walHeaderSize) + 9},
			{"final segment seal tail", final, st.Size() - 1},
			{"snapshot body", snapShardPrefix(0), 16},
			{"snapshot attested head", snapShardPrefix(0), 41},
			{"snapshot signature", snapShardPrefix(0), -5},
		} {
			for bit := 0; bit < 8; bit++ {
				dir, target := tampered(t, fixture, testkit.Tamper{Name: tc.file, Off: tc.off, Mask: byte(1) << bit})
				checkAgree(t, cfg, pc, pub, agreeCase{name: fmt.Sprintf("%s bit %d", tc.name, bit), target: target, dir: dir})
			}
		}
	})

	t.Run("sharded", func(t *testing.T) {
		fixture, pub := auditFixture(t, 3, 12)
		cfg, pc := auditOpen(3)
		for k := 0; k < 3; k++ {
			seg := segmentNames(t, fixture, walShardPrefix(k))[0]
			dir, target := tampered(t, fixture, testkit.Tamper{Name: seg, Off: int64(walHeaderSize) + 11, Mask: 0x40})
			checkAgree(t, cfg, pc, pub, agreeCase{name: fmt.Sprintf("shard %d WAL", k), target: target, dir: dir})
			dir, target = tampered(t, fixture, testkit.Tamper{Name: snapShardPrefix(k), Off: 20, Mask: 0x02})
			checkAgree(t, cfg, pc, pub, agreeCase{name: fmt.Sprintf("shard %d snapshot", k), target: target, dir: dir})
		}
		mans, err := listManifests(fixture)
		if err != nil || len(mans) == 0 {
			t.Fatalf("fixture has no manifest: %v", err)
		}
		man := filepath.Base(mans[0].path)
		st, err := os.Stat(mans[0].path)
		if err != nil {
			t.Fatal(err)
		}
		for off := int64(0); off < st.Size(); off++ {
			dir, target := tampered(t, fixture, testkit.Tamper{Name: man, Off: off, Mask: byte(1) << (off % 8)})
			checkAgree(t, cfg, pc, pub, agreeCase{name: fmt.Sprintf("manifest offset %d", off), target: target, dir: dir})
		}
	})

	t.Run("crc-fixup", func(t *testing.T) {
		fixture, pub := auditFixture(t, 1, 14)
		names := segmentNames(t, fixture, walShardPrefix(0))
		target := names[len(names)-2]
		dir, _ := cloneWith(t, fixture, func(dir string) string {
			fixupFrameCRC(t, filepath.Join(dir, "wal", target), `PC-`, `PD-`)
			return target
		})
		cfg, pc := auditOpen(1)
		checkAgree(t, cfg, pc, pub, agreeCase{name: "re-checksummed frame", target: target, dir: dir, refuse: true})
	})

	t.Run("splice", func(t *testing.T) {
		fixture, pub := auditFixture(t, 3, 12)
		cfg, pc := auditOpen(3)
		mans, err := listManifests(fixture)
		if err != nil || len(mans) == 0 {
			t.Fatal("fixture has no manifest")
		}
		man := filepath.Base(mans[0].path)
		dir, _ := cloneWith(t, fixture, func(dir string) string {
			data, err := os.ReadFile(filepath.Join(dir, man))
			if err != nil {
				t.Fatal(err)
			}
			data[4+4+8+8+8+8+4] ^= 0x10 // inside the first pinned head
			binary.LittleEndian.PutUint32(data[len(data)-4:], crc32.ChecksumIEEE(data[:len(data)-4]))
			if err := os.WriteFile(filepath.Join(dir, man), data, 0o644); err != nil {
				t.Fatal(err)
			}
			return man
		})
		checkAgree(t, cfg, pc, pub, agreeCase{name: "re-checksummed manifest head", target: man, dir: dir, refuse: true})

		snap1 := filepath.Base(snapPath("", snapShardPrefix(1), cert.Day(mans[0].num)))
		dir, _ = cloneWith(t, fixture, func(dir string) string {
			src, err := os.ReadFile(snapPath(dir, snapShardPrefix(0), cert.Day(mans[0].num)))
			if err != nil {
				t.Fatal(err)
			}
			if err := os.WriteFile(filepath.Join(dir, snap1), src, 0o644); err != nil {
				t.Fatal(err)
			}
			return snap1
		})
		checkAgree(t, cfg, pc, pub, agreeCase{name: "shard 0 snapshot over shard 1", target: snap1, dir: dir, refuse: true})
	})

	t.Run("renamed-manifest", func(t *testing.T) {
		fixture, pub := auditFixture(t, 1, 12)
		cfg, pc := auditOpen(1)
		dir, target := cloneWith(t, fixture, func(dir string) string {
			mans, err := listManifests(dir)
			if err != nil || len(mans) != 1 {
				t.Fatalf("fixture has %d manifests (%v), want 1", len(mans), err)
			}
			renamed := manifestPath(dir, cert.Day(mans[0].num+33))
			if err := os.Rename(mans[0].path, renamed); err != nil {
				t.Fatal(err)
			}
			return filepath.Base(renamed)
		})
		checkAgree(t, cfg, pc, pub, agreeCase{name: "renamed manifest", target: target, dir: dir, refuse: true})
	})

	// Two generations, days 4 and 9, with the newest one damaged: Open
	// falls back to day 4 past exactly the file VerifyAudit refuses —
	// except for a forgery, which both refuse.
	for _, shards := range []int{1, 3} {
		t.Run(fmt.Sprintf("two-generations/shards=%d", shards), func(t *testing.T) {
			cfg := spanCfg(t, shards)
			srv, fixture := twoGenerations(t, cfg)
			pub := srv.auditPub()
			snap := filepath.Base(snapPath("", snapShardPrefix(shards-1), 9))
			man := filepath.Base(manifestPath("", 9))
			for _, c := range []struct {
				name, target string
				edit         func(path string)
				refuse       bool
			}{
				{"snapshot bit flip", snap, func(path string) { flipAt(t, path, 20) }, false},
				{"snapshot cut short", snap, func(path string) { cutShort(t, path, 100) }, false},
				{"manifest bit flip", man, func(path string) { flipAt(t, path, 10) }, false},
				{"snapshot re-checksummed, not re-signed", snap, func(path string) { forgeSnapshot(t, path) }, true},
			} {
				dir, _ := cloneWith(t, fixture.Dir, func(dir string) string {
					c.edit(filepath.Join(dir, c.target))
					return c.target
				})
				checkAgree(t, cfg, fixture, pub, agreeCase{name: c.name, target: c.target, dir: dir, refuse: c.refuse})
			}
			// The newest manifest renamed: a cut rule, not damage, passes it
			// over, and the verifier still refuses it.
			renamed := filepath.Base(manifestPath("", 42))
			dir, _ := cloneWith(t, fixture.Dir, func(dir string) string {
				if err := os.Rename(filepath.Join(dir, man), filepath.Join(dir, renamed)); err != nil {
					t.Fatal(err)
				}
				return renamed
			})
			checkAgree(t, cfg, fixture, pub, agreeCase{name: "newest manifest renamed", target: renamed, dir: dir, passOver: true})
		})
	}
}

func flipAt(t *testing.T, path string, off int64) {
	t.Helper()
	if err := (testkit.Tamper{Off: off, Mask: 0x02}).ApplyTo(path); err != nil {
		t.Fatal(err)
	}
}

func cutShort(t *testing.T, path string, n int64) {
	t.Helper()
	st, err := os.Stat(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.Truncate(path, st.Size()-n); err != nil {
		t.Fatal(err)
	}
}

// TestOpenRefusesForgedSnapshot: a snapshot whose checksum passes and whose
// signature does not was altered and re-checksummed, like a manifest in
// that state: the open fails with ErrAuditChainBroken naming the file, and
// does not fall back to the older generation beside it.
func TestOpenRefusesForgedSnapshot(t *testing.T) {
	for _, shards := range []int{1, 3} {
		t.Run(fmt.Sprintf("shards=%d", shards), func(t *testing.T) {
			cfg := spanCfg(t, shards)
			_, pc := twoGenerations(t, cfg)
			victim := snapPath(pc.Dir, snapShardPrefix(shards-1), 9)
			forgeSnapshot(t, victim)
			s, info, err := Open(cfg, pc)
			if err == nil {
				shutdown(t, s)
				t.Fatalf("Open recovered %+v over a forged snapshot", info)
			}
			if !errors.Is(err, ErrAuditChainBroken) || !strings.Contains(err.Error(), filepath.Base(victim)) {
				t.Fatalf("Open: %v, want ErrAuditChainBroken naming %s", err, filepath.Base(victim))
			}
		})
	}
}

// TestOpenReportsSkippedCuts: an open that falls back a generation says so
// — RecoverInfo, the status report's recovery block and the recovery log
// line each name the cut passed over and why — and a clean open lists
// nothing.
func TestOpenReportsSkippedCuts(t *testing.T) {
	for _, shards := range []int{1, 3} {
		t.Run(fmt.Sprintf("shards=%d", shards), func(t *testing.T) {
			cfg := spanCfg(t, shards)
			_, pc := twoGenerations(t, cfg)
			clean := pc
			clean.Dir = t.TempDir()
			if err := testkit.CopyTree(pc.Dir, clean.Dir); err != nil {
				t.Fatal(err)
			}
			s, info, err := Open(cfg, clean)
			if err != nil {
				t.Fatal(err)
			}
			shutdown(t, s)
			if info.SnapshotDay != 9 || len(info.SkippedCuts) != 0 {
				t.Fatalf("clean open recovered %+v, want the day-9 cut and nothing skipped", info)
			}

			victim := filepath.Base(snapPath("", snapShardPrefix(shards-1), 9))
			flipAt(t, filepath.Join(pc.Dir, victim), 20)
			var logged strings.Builder
			prev := slog.Default()
			slog.SetDefault(slog.New(slog.NewTextHandler(&logged, nil)))
			s, info, err = Open(cfg, pc)
			slog.SetDefault(prev)
			if err != nil {
				t.Fatal(err)
			}
			defer shutdown(t, s)
			if info.SnapshotDay != 4 || len(info.SkippedCuts) != 1 || !strings.HasPrefix(info.SkippedCuts[0], victim+": ") {
				t.Fatalf("recovered %+v, want the day-4 cut and %s skipped", info, victim)
			}
			if !strings.Contains(logged.String(), "skipped_cuts=") || !strings.Contains(logged.String(), victim) {
				t.Fatalf("recovery log line does not name the skipped cut:\n%s", logged.String())
			}
			body, err := json.Marshal(s.Status())
			if err != nil {
				t.Fatal(err)
			}
			var st struct {
				Persistence struct {
					Recovery struct {
						SkippedCuts []string `json:"skipped_cuts"`
					} `json:"recovery"`
				} `json:"persistence"`
			}
			if err := json.Unmarshal(body, &st); err != nil {
				t.Fatal(err)
			}
			if got := st.Persistence.Recovery.SkippedCuts; !slices.Equal(got, info.SkippedCuts) {
				t.Fatalf("status recovery.skipped_cuts %q, want %q", got, info.SkippedCuts)
			}
		})
	}
}
