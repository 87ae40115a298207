package serve

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"testing"
	"time"

	"acobe/internal/cert"
	"acobe/internal/features"
	"acobe/internal/obs"
)

// shardCounts is the shard-count matrix the parity and crash tests run
// over: the unsharded baseline, a count that does not divide the user set
// evenly, and one larger than some test user sets (empty shards).
var shardCounts = []int{1, 3, 8}

// shardStubIngestor is the per-shard analogue of stubIngestor: it writes
// gen() measurements for its shard's users at their *global* indices, so
// every shard count reproduces the exact measurement matrix the unsharded
// stub produces.
type shardStubIngestor struct {
	stubState
	tbl   *features.Table
	users []string
	idx   map[string]int // user name -> global index
}

func (s *shardStubIngestor) Table() *features.Table { return s.tbl }

func (s *shardStubIngestor) Apply(events []Event) (int, error) { return 0, nil }

func (s *shardStubIngestor) CloseDay(d cert.Day) (int, error) {
	for lu, name := range s.users {
		g := s.idx[name]
		for f := range testFeats {
			for frame := 0; frame < 2; frame++ {
				s.tbl.Add(lu, f, frame, d, gen(g, f, frame, d))
			}
		}
	}
	return 0, nil
}

// stubShardFactory builds gen()-backed per-shard ingestors for any
// partition of allUsers.
func stubShardFactory(allUsers []string) func([]string, cert.Day) (Ingestor, error) {
	idx := make(map[string]int, len(allUsers))
	for i, u := range allUsers {
		idx[u] = i
	}
	return func(users []string, start cert.Day) (Ingestor, error) {
		tbl, err := features.NewTable(users, testFeats, 2, start, start)
		if err != nil {
			return nil, err
		}
		return &shardStubIngestor{tbl: tbl, users: users, idx: idx}, nil
	}
}

// probeState serializes every observable float of the server's merged
// state — raw measurements, individual deviations, group measurements,
// group deviations — as raw bits. Two servers with equal probes hold
// bit-identical state regardless of how it is partitioned internally.
func probeState(t *testing.T, s *Server, from, to cert.Day) []uint64 {
	t.Helper()
	var out []uint64
	add := func(v float64) { out = append(out, math.Float64bits(v)) }
	p := s.pub.Load()
	ind := p.ind
	nu := len(s.cfg.Users)
	for d := from; d <= to; d++ {
		for u := 0; u < nu; u++ {
			tbl := s.shards[s.userShard[u]].ing.Table()
			for f := range s.feats {
				for fr := 0; fr < s.frames; fr++ {
					add(tbl.At(s.userLocal[u], f, fr, d))
					add(ind.Sigma(u, f, fr, d))
				}
			}
		}
	}
	if gf := p.grp; gf != nil {
		gt := s.grpTbl
		for d := from; d <= to; d++ {
			for g := range s.cfg.Groups {
				for f := range s.feats {
					for fr := 0; fr < s.frames; fr++ {
						add(gt.At(g, f, fr, d))
						add(gf.Sigma(g, f, fr, d))
					}
				}
			}
		}
	}
	return out
}

// TestShardParityTrainedRanks is the end-to-end shard-parity acceptance
// test: the full serve flow (close 70 days, retrain, rank, score) must
// produce byte-identical output at every shard count — ranks, priorities,
// and raw per-day scores all bit-equal to the Shards=1 baseline.
//
// It is also the score memo's parity test. The last days close one at a
// time after the retrain, and after each close the server ranks windows
// that are new, repeated, slid by one day, disjoint from anything asked
// before, and longer than anything asked before; every list must equal
// the uncached Detector().Rank list of the same state, and the column
// counters must show that exactly the never-ranked days were scored.
func TestShardParityTrainedRanks(t *testing.T) {
	const trainedAt, lastDay = cert.Day(62), cert.Day(69)
	ctx := context.Background()

	type result struct {
		list   []rankRow
		scores [][]float64
	}
	run := func(t *testing.T, shards int) result {
		srv, err := New(Config{
			Users:           testUsers,
			Groups:          testGroups,
			Membership:      testMember,
			Start:           0,
			Deviation:       testDevCfg(),
			IngestorFactory: stubShardFactory(testUsers),
			Shards:          shards,
			DetectorOptions: testDetOpts(),
			QueueSize:       16,
			Observer:        obs.NewObserver(),
		})
		if err != nil {
			t.Fatal(err)
		}
		defer func() {
			sctx, cancel := context.WithTimeout(ctx, 10*time.Second)
			defer cancel()
			_ = srv.Shutdown(sctx)
		}()
		for d := cert.Day(0); d <= trainedAt; d++ {
			if err := srv.CloseDay(ctx, d); err != nil {
				t.Fatal(err)
			}
		}
		if err := srv.Retrain(ctx, 0, 55, true); err != nil {
			t.Fatal(err)
		}
		probe := newMemoProbe(t, srv)
		for d := trainedAt + 1; d <= lastDay; d++ {
			if err := srv.CloseDay(ctx, d); err != nil {
				t.Fatal(err)
			}
			probe.rank(d-3, d)   // first pass: all new; later: slid by one day
			probe.rank(d-3, d)   // fully memoised
			probe.rank(d-2, d+9) // clamped by closed_through, inside the last
			k := d - trainedAt
			probe.rank(40-3*k, 41-3*k) // disjoint from every earlier window
		}
		probe.rank(0, lastDay+5) // longer than anything before: fills every gap
		probe.rank(30, 50)       // and then nothing is left to score
		list, err := srv.Rank(ctx, 60, lastDay)
		if err != nil {
			t.Fatal(err)
		}
		series, err := srv.Detector().ScoreBatch(ctx, 60, lastDay)
		if err != nil {
			t.Fatal(err)
		}
		res := result{}
		for _, r := range list {
			res.list = append(res.list, rankRow{user: r.User, priority: r.Priority, ranks: append([]int(nil), r.Ranks...)})
		}
		for _, a := range series {
			for _, us := range a.Scores {
				res.scores = append(res.scores, append([]float64(nil), us...))
			}
		}
		return res
	}

	want := run(t, 1)
	for _, n := range shardCounts[1:] {
		t.Run(fmt.Sprintf("shards=%d", n), func(t *testing.T) {
			got := run(t, n)
			if len(got.list) != len(want.list) {
				t.Fatalf("%d ranked rows, want %d", len(got.list), len(want.list))
			}
			for i := range want.list {
				g, w := got.list[i], want.list[i]
				if g.user != w.user || g.priority != w.priority {
					t.Errorf("list[%d]: %s/%d, want %s/%d", i, g.user, g.priority, w.user, w.priority)
				}
				for a := range w.ranks {
					if g.ranks[a] != w.ranks[a] {
						t.Errorf("list[%d] ranks %v, want %v", i, g.ranks, w.ranks)
					}
				}
			}
			for u := range want.scores {
				for i := range want.scores[u] {
					if math.Float64bits(got.scores[u][i]) != math.Float64bits(want.scores[u][i]) {
						t.Fatalf("score[%d][%d] = %v, want bit-identical %v", u, i, got.scores[u][i], want.scores[u][i])
					}
				}
			}
		})
	}
}

type rankRow struct {
	user     string
	priority int
	ranks    []int
}

// memoProbe checks Server.Rank against the uncached detector and against
// its own ledger of the days already ranked under the serving model.
type memoProbe struct {
	t    *testing.T
	srv  *Server
	seen map[cert.Day]bool
}

func newMemoProbe(t *testing.T, srv *Server) *memoProbe {
	return &memoProbe{t: t, srv: srv, seen: make(map[cert.Day]bool)}
}

// columns returns the (scored, reused) column counters.
func (p *memoProbe) columns() (int64, int64) {
	snap := p.srv.obs.Snapshot()
	return snap.Counter(obs.CounterRankColumnsScored), snap.Counter(obs.CounterRankColumnsReused)
}

// rank ranks [from, to] on a quiescent server: the list must be the
// uncached one, the days never ranked before must be scored once (every
// aspect), and the rest must be served from the memo.
func (p *memoProbe) rank(from, to cert.Day) {
	p.t.Helper()
	ctx := context.Background()
	det := p.srv.Detector()
	scored0, reused0 := p.columns()
	got, err := p.srv.Rank(ctx, from, to)
	if err != nil {
		p.t.Fatalf("rank %v..%v: %v", from, to, err)
	}
	want, err := det.Rank(ctx, from, to)
	if err != nil {
		p.t.Fatal(err)
	}
	if !reflect.DeepEqual(got, want) {
		p.t.Fatalf("rank %v..%v: memoised list differs from the uncached one\n got %+v\nwant %+v", from, to, got, want)
	}
	fresh, known := 0, 0
	for d := max(from, det.FirstScoreableDay()); d <= min(to, p.srv.ClosedThrough()); d++ {
		if p.seen[d] {
			known++
		} else {
			fresh++
			p.seen[d] = true
		}
	}
	aspects := int64(len(det.AspectNames()))
	scored, reused := p.columns()
	if scored-scored0 != int64(fresh)*aspects || reused-reused0 != int64(known)*aspects {
		p.t.Fatalf("rank %v..%v scored %d and reused %d columns, want %d and %d",
			from, to, scored-scored0, reused-reused0, int64(fresh)*aspects, int64(known)*aspects)
	}
	// Each ranked day holds its columns and one median per aspect.
	if got, want := p.srv.Status().RankMemoBytes, int64(len(p.seen))*aspects*int64(len(det.Users())+1)*8; got != want {
		p.t.Fatalf("rank_memo_bytes = %d after %d ranked days, want %d", got, len(p.seen), want)
	}
}

// parityEvents builds one user's synthetic CERT events for a day.
func parityEvents(u string, i int, d cert.Day) []Event {
	at := func(h int) time.Time { return d.Date().Add(time.Duration(h) * time.Hour) }
	evs := []Event{
		{Cert: &cert.Event{Type: cert.EventLogon, Time: at(7 + i%5), User: u, Activity: cert.ActLogon}},
		{Cert: &cert.Event{Type: cert.EventDevice, Time: at(10), User: u, PC: fmt.Sprintf("PC-%d", (int(d)+i)%5), Activity: cert.ActConnect}},
	}
	if (int(d)+i)%2 == 0 {
		evs = append(evs, Event{Cert: &cert.Event{Type: cert.EventFile, Time: at(12), User: u,
			Activity: cert.ActFileOpen, Direction: cert.DirLocal, FileID: fmt.Sprintf("F%d", (int(d)+3*i)%7)}})
	}
	if (int(d)+i)%3 == 0 {
		evs = append(evs, Event{Cert: &cert.Event{Type: cert.EventHTTP, Time: at(15), User: u,
			Activity: cert.ActUpload, FileType: "doc", Domain: fmt.Sprintf("d%d.com", i%3)}})
	}
	return evs
}

// TestShardParityProperty is the randomized parity property: for random
// user sets, random group memberships, and random ingest interleavings
// (user order shuffled per day, days split into random Submit batches),
// the real CERT ingest path must leave bit-identical merged state at every
// shard count. Each user's own events stay in order — the split/merge may
// reorder *between* users, which per-user feature extraction must not see.
func TestShardParityProperty(t *testing.T) {
	const days = 25
	for trial := 0; trial < 3; trial++ {
		trial := trial
		t.Run(fmt.Sprintf("trial=%d", trial), func(t *testing.T) {
			rng := rand.New(rand.NewSource(int64(1000 + trial)))
			nUsers := 5 + rng.Intn(8)
			users := make([]string, nUsers)
			for i := range users {
				users[i] = fmt.Sprintf("user-%02d-%04x", i, rng.Intn(1<<16))
			}
			groups := []string{"ga", "gb"}
			member := make([]int, nUsers)
			for i := range member {
				member[i] = rng.Intn(len(groups))
			}

			run := func(t *testing.T, shards int, seed int64) []uint64 {
				srv, err := New(Config{
					Users:      users,
					Groups:     groups,
					Membership: member,
					Start:      0,
					Deviation:  testDevCfg(),
					Shards:     shards, // default factory: real CERT ingestor per shard
					QueueSize:  16,
				})
				if err != nil {
					t.Fatal(err)
				}
				defer func() {
					sctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
					defer cancel()
					_ = srv.Shutdown(sctx)
				}()
				ctx := context.Background()
				order := rand.New(rand.NewSource(seed))
				for d := cert.Day(0); d < days; d++ {
					perm := order.Perm(nUsers)
					var dayEvs []Event
					for _, i := range perm {
						dayEvs = append(dayEvs, parityEvents(users[i], i, d)...)
					}
					// Random batch splits: 1..4 Submit calls for the day.
					for len(dayEvs) > 0 {
						n := 1 + order.Intn(len(dayEvs))
						if err := srv.Submit(ctx, dayEvs[:n]); err != nil {
							t.Fatal(err)
						}
						dayEvs = dayEvs[n:]
					}
					if err := srv.CloseDay(ctx, d); err != nil {
						t.Fatal(err)
					}
				}
				return probeState(t, srv, 0, days-1)
			}

			want := run(t, 1, int64(7*trial+1))
			for _, n := range shardCounts[1:] {
				got := run(t, n, int64(100*trial+n)) // different interleaving on purpose
				if len(got) != len(want) {
					t.Fatalf("shards=%d probe has %d values, want %d", n, len(got), len(want))
				}
				for i := range want {
					if got[i] != want[i] {
						t.Fatalf("shards=%d state diverges at probe index %d: %016x != %016x",
							n, i, got[i], want[i])
					}
				}
			}
		})
	}
}

// TestShardConfigValidation: a factory must build each shard's ingestor
// over exactly the user subset it is handed. One that ignores the subset
// (a prebuilt all-user ingestor) serves one shard, where the subset is
// everyone, and is rejected loudly once the users are partitioned.
func TestShardConfigValidation(t *testing.T) {
	users := spanningUsers(t, 3, 2) // testUsers would all land on one shard of three
	cfg := Config{
		Users:           users,
		Groups:          testGroups,
		Membership:      testMember,
		Start:           0,
		Deviation:       testDevCfg(),
		DetectorOptions: testDetOpts(),
		QueueSize:       4,
	}
	tbl, err := features.NewTable(users, testFeats, 2, 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	prebuilt := &stubIngestor{tbl: tbl}
	cfg.IngestorFactory = func([]string, cert.Day) (Ingestor, error) { return prebuilt, nil }
	srv, err := New(cfg)
	if err != nil {
		t.Fatalf("one shard over an all-user ingestor: %v", err)
	}
	shutdown(t, srv)
	cfg.Shards = 3
	if _, err := New(cfg); err == nil {
		t.Error("an ingestor that does not cover exactly its shard's users must be rejected")
	}
}

// TestShardRouterDeterminism: the consistent-hash router is deterministic,
// total, and stable under shard-count-preserving rebuilds; at n=1 every
// user routes to shard 0.
func TestShardRouterDeterminism(t *testing.T) {
	rng := rand.New(rand.NewSource(99))
	for _, n := range []int{1, 2, 3, 8, 16} {
		a, b := newRouter(n), newRouter(n)
		counts := make([]int, n)
		for i := 0; i < 500; i++ {
			u := fmt.Sprintf("user-%d-%x", i, rng.Int63())
			k := a.shardOf(u)
			if k < 0 || k >= n {
				t.Fatalf("n=%d: shardOf(%q) = %d out of range", n, u, k)
			}
			if bk := b.shardOf(u); bk != k {
				t.Fatalf("n=%d: rebuilt router disagrees on %q: %d vs %d", n, u, k, bk)
			}
			counts[k]++
		}
		if n == 1 && counts[0] != 500 {
			t.Fatalf("n=1 must route everything to shard 0")
		}
		if n > 1 {
			// 64 vnodes/shard keeps the spread sane; just guard against a
			// degenerate all-on-one-shard hash.
			for k, c := range counts {
				if c == 500 {
					t.Fatalf("n=%d: all users landed on shard %d", n, k)
				}
			}
		}
	}
}
