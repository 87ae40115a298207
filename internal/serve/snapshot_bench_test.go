package serve

import (
	"context"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"sync/atomic"
	"testing"

	"acobe/internal/cert"
	"acobe/internal/deviation"
	"acobe/internal/obs"
)

// benchSnapCfg is the snapshot and recovery benchmarks' server: the real
// CERT ingestor over n synthetic users in three groups. The IDs are
// scattered because the router's FNV ring puts look-alike sequential IDs
// on one shard.
func benchSnapCfg(n, shards int) Config {
	cfg := Config{
		Groups:    []string{"g0", "g1", "g2"},
		Start:     0,
		Shards:    shards,
		Deviation: deviation.Config{Window: 14, MatrixDays: 3, Delta: 3, Epsilon: 1, Weighted: true},
	}
	for u := 0; u < n; u++ {
		cfg.Users = append(cfg.Users, fmt.Sprintf("user-%x", uint64(u+1)*0x9e3779b97f4a7c15))
		cfg.Membership = append(cfg.Membership, u%3)
	}
	return cfg
}

// benchSnapServer opens an audited server on a fresh directory, closes
// days [0, days) and shuts it down: its workers are gone, its state and
// its directory stay for the benchmark to use.
func benchSnapServer(b *testing.B, cfg Config, pc PersistConfig, days int) *Server {
	b.Helper()
	srv, _, err := Open(cfg, pc)
	if err != nil {
		b.Fatal(err)
	}
	if err := feedUserDays(srv, 0, cert.Day(days-1)); err != nil {
		b.Fatal(err)
	}
	if err := srv.Shutdown(context.Background()); err != nil {
		b.Fatal(err)
	}
	return srv
}

// countedFile counts the Write calls that reach a file.
type countedFile struct {
	WritableFile
	writes *atomic.Int64
}

func (f countedFile) Write(p []byte) (int, error) {
	f.writes.Add(1)
	return f.WritableFile.Write(p)
}

// benchSnapshot is the one-shard, audited, 20-closed-day state both
// snapshot benchmarks cut: the server, its shard's snapshot header, the
// file name, and a count of the writes that reach snapshot files.
func benchSnapshot(b *testing.B, users int) (*Server, snapHeader, string, *atomic.Int64) {
	b.Helper()
	writes := new(atomic.Int64)
	cfg := benchSnapCfg(users, 1)
	cfg.Observer = obs.NewObserver()
	pc := PersistConfig{Dir: b.TempDir(), SnapshotEvery: 1000}
	pc.Hooks.WrapWriter = func(name string, f WritableFile) WritableFile {
		if strings.HasSuffix(name, snapTempSuffix) {
			return countedFile{f, writes}
		}
		return f
	}
	srv := benchSnapServer(b, cfg, pc, 20)
	sh := srv.shards[0]
	h := snapHeader{day: sh.closedThrough, pos: sh.wal.pos(), head: sh.wal.head()}
	return srv, h, snapPath(pc.Dir, snapShardPrefix(0), h.day), writes
}

// BenchmarkSnapshotWrite is one publishSnapshot per iteration — encode,
// checksum, digest, sign, write, fsync, rename, directory fsync — of a
// one-shard audited state after 20 closed days. allocs/op against the
// tens of thousands of series in the state says whether the encoders
// allocate per series; file-writes/op is the write(2) calls one snapshot
// costs; encode-ms/op and sync-ms/op are the two stage histograms' means
// (encode + hash + write, then fsync + rename + directory fsync);
// snapshot-B/user is the file's size over the users it holds.
func BenchmarkSnapshotWrite(b *testing.B) {
	for _, users := range []int{250, 2000} {
		b.Run(fmt.Sprintf("users=%d", users), func(b *testing.B) {
			srv, h, path, writes := benchSnapshot(b, users)
			if err := srv.publishSnapshot(path, srv.shards[0], h); err != nil {
				b.Fatal(err)
			}
			st, err := os.Stat(path)
			if err != nil {
				b.Fatal(err)
			}
			b.SetBytes(st.Size())
			b.ReportAllocs()
			writes.Store(0)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if err := srv.publishSnapshot(path, srv.shards[0], h); err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(float64(writes.Load())/float64(b.N), "file-writes/op")
			b.ReportMetric(float64(st.Size())/float64(users), "snapshot-B/user")
			stages := srv.MetricsSnapshot()
			for stage, unit := range map[string]string{obs.StageSnapEncode: "encode-ms/op", obs.StageSnapSync: "sync-ms/op"} {
				b.ReportMetric(stages.Stage(stage).MeanUS/1e3, unit)
			}
		})
	}
}

// BenchmarkSnapshotLoad is one loadSnapshot per iteration of the file
// BenchmarkSnapshotWrite cuts, into a freshly built core (built with the
// timer stopped): signature and checksum verified, and the shard's
// deviation windows re-derived over the loaded table.
func BenchmarkSnapshotLoad(b *testing.B) {
	for _, users := range []int{250, 2000} {
		b.Run(fmt.Sprintf("users=%d", users), func(b *testing.B) {
			srv, h, path, _ := benchSnapshot(b, users)
			if err := srv.publishSnapshot(path, srv.shards[0], h); err != nil {
				b.Fatal(err)
			}
			st, err := os.Stat(path)
			if err != nil {
				b.Fatal(err)
			}
			b.SetBytes(st.Size())
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				b.StopTimer()
				fresh, err := newCore(srv.cfg)
				if err != nil {
					b.Fatal(err)
				}
				srv.adoptCore(fresh)
				srv.sigma.Reserve(h.day)
				b.StartTimer()
				if _, err := srv.loadSnapshot(path, srv.shards[0]); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkRecover is one Open per iteration of an audited 500-user
// directory holding 19 closed days — a snapshot generation at day 14 and
// four days of WAL tail behind it, the shape the referee's recoveries
// meet — at three shard counts over the same users and events.
func BenchmarkRecover(b *testing.B) {
	for _, shards := range []int{1, 2, 4} {
		b.Run(fmt.Sprintf("shards=%d", shards), func(b *testing.B) {
			cfg := benchSnapCfg(500, shards)
			pc := PersistConfig{Dir: b.TempDir(), SnapshotEvery: 15}
			benchSnapServer(b, cfg, pc, 19)
			if m, _ := filepath.Glob(filepath.Join(pc.Dir, manifestPrefix+"*")); len(m) != 1 {
				b.Fatalf("want one snapshot generation, have %v", m)
			}
			ctx := context.Background()
			var load, walk, replay, publish float64
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				srv, info, err := Open(cfg, pc)
				if err != nil {
					b.Fatal(err)
				}
				b.StopTimer()
				if !info.SnapshotLoaded || info.ClosedThrough != 18 {
					b.Fatalf("recovered %+v", info)
				}
				load += info.SnapshotLoadSeconds
				walk += info.WalkSeconds
				replay += info.ReplaySeconds
				publish += info.PublishSeconds
				if err := srv.Shutdown(ctx); err != nil {
					b.Fatal(err)
				}
				b.StartTimer()
			}
			for name, sec := range map[string]float64{"load": load, "walk": walk, "replay": replay, "publish": publish} {
				b.ReportMetric(sec*1e3/float64(b.N), name+"-ms/op")
			}
		})
	}
}
