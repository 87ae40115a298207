package features

import (
	"bytes"
	"fmt"
	"math/rand"
	"runtime"
	"slices"
	"sort"
	"testing"
	"time"

	"acobe/internal/cert"
	"acobe/internal/testkit"
)

// genDays generates a small organization's events for days [0, days),
// plus a sprinkle of events for a user outside the roster.
func genDays(tb testing.TB, usersPerDept, days int) (ids []string, byDay [][]cert.Event) {
	tb.Helper()
	cfg := cert.SmallConfig(usersPerDept)
	cfg.End = cert.Day(days - 1)
	g, err := cert.New(cfg)
	if err != nil {
		tb.Fatal(err)
	}
	for _, u := range g.Users() {
		ids = append(ids, u.ID)
	}
	err = g.Stream(func(d cert.Day, evs []cert.Event) error {
		evs = append(evs, cert.Event{Type: cert.EventLogon, Time: at(d, 8), User: "nobody", Activity: cert.ActLogon})
		byDay = append(byDay, evs)
		return nil
	})
	if err != nil {
		tb.Fatal(err)
	}
	return ids, byDay
}

// referenceConsume is the extraction this package ran before events were
// folded in one at a time: one whole day against per-user history sets,
// feature looked up by name, new pairs merged at the end of the day. The
// kernel must fill the same table.
type referenceExtractor struct {
	table *Table
	seen  [numKinds][]map[string]bool
}

func newReferenceExtractor(tb testing.TB, users []string, start, end cert.Day) *referenceExtractor {
	tb.Helper()
	table, err := NewTable(users, trackedFeatures, cert.NumTimeframes, start, end)
	if err != nil {
		tb.Fatal(err)
	}
	r := &referenceExtractor{table: table}
	for k := range r.seen {
		r.seen[k] = make([]map[string]bool, len(users))
		for u := range r.seen[k] {
			r.seen[k][u] = make(map[string]bool)
		}
	}
	return r
}

func (r *referenceExtractor) consume(d cert.Day, events []cert.Event) {
	type pair struct {
		kind, u int
		key     string
	}
	fresh := make(map[pair]bool)
	add := func(feature string, u, frame int) {
		r.table.Add(u, r.table.FeatureIndex(feature), frame, d, 1)
	}
	firstSeen := func(kind, u, frame int, feature, key string) {
		if !r.seen[kind][u][key] {
			add(feature, u, frame)
			fresh[pair{kind, u, key}] = true
		}
	}
	for _, e := range events {
		u := r.table.UserIndex(e.User)
		if u < 0 {
			continue
		}
		frame := int(e.Timeframe())
		switch e.Type {
		case cert.EventLogon:
			switch e.Activity {
			case cert.ActLogon:
				add(FeatCoarseLogon, u, frame)
			case cert.ActLogoff:
				add(FeatCoarseLogoff, u, frame)
			}
		case cert.EventDevice:
			switch e.Activity {
			case cert.ActConnect:
				add(FeatDeviceConnection, u, frame)
				add(FeatCoarseDeviceConnect, u, frame)
				firstSeen(kindHost, u, frame, FeatDeviceNewHost, e.PC)
			case cert.ActDisconnect:
				add(FeatCoarseDeviceDisconnect, u, frame)
			}
		case cert.EventFile:
			fine := map[[2]string]string{
				{cert.ActFileOpen, cert.DirLocal}:         FeatFileOpenLocal,
				{cert.ActFileOpen, cert.DirRemote}:        FeatFileOpenRemote,
				{cert.ActFileWrite, cert.DirLocal}:        FeatFileWriteLocal,
				{cert.ActFileWrite, cert.DirRemote}:       FeatFileWriteRemote,
				{cert.ActFileCopy, cert.DirLocalToRemote}: FeatFileCopyL2R,
				{cert.ActFileCopy, cert.DirRemoteToLocal}: FeatFileCopyR2L,
			}[[2]string{e.Activity, e.Direction}]
			if fine != "" {
				add(fine, u, frame)
			}
			coarse := map[string]string{
				cert.ActFileOpen: FeatCoarseFileOpen, cert.ActFileWrite: FeatCoarseFileWrite, cert.ActFileCopy: FeatCoarseFileCopy,
			}[e.Activity]
			if coarse != "" {
				add(coarse, u, frame)
			}
			firstSeen(kindFileOp, u, frame, FeatFileNewOp, e.Activity+"|"+e.Direction+"|"+e.FileID)
		case cert.EventHTTP:
			switch e.Activity {
			case cert.ActVisit:
				add(FeatCoarseHTTPVisit, u, frame)
			case cert.ActDownload:
				add(FeatCoarseHTTPDownload, u, frame)
			case cert.ActUpload:
				add(FeatCoarseHTTPUpload, u, frame)
				if slices.Contains(cert.FileTypes, e.FileType) {
					add("http:upload-"+e.FileType, u, frame)
				}
				firstSeen(kindHTTPOp, u, frame, FeatHTTPNewOp, e.FileType+"|"+e.Domain)
			}
		case cert.EventEmail:
			if e.Activity == cert.ActSend {
				add(FeatCoarseEmailSend, u, frame)
			}
		}
	}
	for p := range fresh {
		r.seen[p.kind][p.u][p.key] = true
	}
}

func TestKernelMatchesReference(t *testing.T) {
	ids, byDay := genDays(t, 6, 12)
	// Both tables stop two days short of the stream: an out-of-span day
	// still has to reach the history.
	end := cert.Day(len(byDay) - 3)
	x, err := NewExtractor(ids, 0, end)
	if err != nil {
		t.Fatal(err)
	}
	ref := newReferenceExtractor(t, ids, 0, end)
	for d, evs := range byDay {
		if err := x.Consume(cert.Day(d), evs); err != nil {
			t.Fatal(err)
		}
		ref.consume(cert.Day(d), evs)
	}
	var got, want bytes.Buffer
	if err := x.Table().SaveState(&got); err != nil {
		t.Fatal(err)
	}
	if err := ref.table.SaveState(&want); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got.Bytes(), want.Bytes()) {
		t.Fatal("kernel and reference extraction filled different tables")
	}
	for k := range ref.seen {
		for u := range ref.seen[k] {
			if fmt.Sprintf("%s", x.seen.Keys(nil, u, k)) != fmt.Sprint(sortedKeys(ref.seen[k][u])) {
				t.Fatalf("kind %d user %d: history differs from the reference", k, u)
			}
		}
	}
}

func sortedKeys(m map[string]bool) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

// TestApplyOrderIndependent is the property the serving daemon rests on:
// whatever order a multi-day event set arrives in — permuted, cut into
// arbitrary batches, days interleaved, a close between any two batches
// that does not precede its day's events, the state saved and restored
// into a fresh extractor at some point with days still open — the closed
// state is byte for byte what the batch Consume run leaves.
func TestApplyOrderIndependent(t *testing.T) {
	ids, byDay := genDays(t, 3, 8)
	batch, err := NewExtractor(ids, 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	for d, evs := range byDay {
		if err := batch.Table().EnsureDay(cert.Day(d)); err != nil {
			t.Fatal(err)
		}
		if err := batch.Consume(cert.Day(d), evs); err != nil {
			t.Fatal(err)
		}
	}
	want := encodeExtractor(t, batch)
	counts := make([]int, len(byDay))
	for d, evs := range byDay {
		counts[d] = len(evs)
	}

	for trial := 0; trial < 40; trial++ {
		rng := rand.New(rand.NewSource(int64(trial)))
		x, err := NewExtractor(ids, 0, 0)
		if err != nil {
			t.Fatal(err)
		}
		restoreAt := -1
		if trial%2 == 1 {
			restoreAt = rng.Intn(len(byDay) * 40)
		}
		testkit.Arrivals(rng, counts,
			func(d, i int) {
				if known, err := x.Apply(&byDay[d][i]); err != nil {
					t.Fatal(err)
				} else if known != (byDay[d][i].User != "nobody") {
					t.Fatalf("Apply reported known=%v for user %q", known, byDay[d][i].User)
				}
			},
			func(d int) {
				if err := x.Table().EnsureDay(cert.Day(d)); err != nil {
					t.Fatal(err)
				}
				if _, err := x.CloseDay(cert.Day(d)); err != nil {
					t.Fatal(err)
				}
			},
			func(step int) {
				if step == restoreAt {
					x = restoreExtractor(t, x, ids)
				}
			})
		if got := encodeExtractor(t, x); !bytes.Equal(got, want) {
			t.Fatalf("trial %d: state after a permuted, interleaved arrival differs from the batch run", trial)
		}
		if open := x.OpenDays(); len(open) != 0 {
			t.Fatalf("trial %d: days still open after the last close: %v", trial, open)
		}
	}
}

// restoreExtractor saves x whole — closed state and every open day — and
// loads it into a fresh extractor.
func restoreExtractor(t *testing.T, x *Extractor, ids []string) *Extractor {
	t.Helper()
	fresh, err := NewExtractor(ids, 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	if err := fresh.LoadState(bytes.NewReader(encodeExtractor(t, x))); err != nil {
		t.Fatal(err)
	}
	for d, events := range x.OpenDays() {
		var blob bytes.Buffer
		if err := x.SaveOpenDay(&blob, d); err != nil {
			t.Fatal(err)
		}
		if err := fresh.LoadOpenDay(blob.Bytes(), d); err != nil {
			t.Fatal(err)
		}
		if got := fresh.OpenDays()[d]; got != events {
			t.Fatalf("day %v restored with %d events, saved with %d", d, got, events)
		}
	}
	return fresh
}

func TestCloseDayOrder(t *testing.T) {
	x := newTestExtractor(t)
	ev := func(d cert.Day) *cert.Event {
		return &cert.Event{Type: cert.EventLogon, Time: at(d, 9), User: "alice", Activity: cert.ActLogon}
	}
	for _, d := range []cert.Day{2, 1} {
		if _, err := x.Apply(ev(d)); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := x.CloseDay(2); err == nil {
		t.Fatal("closed day 2 with day 1 still open")
	}
	if _, err := x.CloseDay(1); err != nil {
		t.Fatal(err)
	}
	if _, err := x.Apply(ev(1)); err == nil {
		t.Fatal("applied an event to a closed day")
	}
	if err := x.LoadOpenDay(nil, 1); err == nil {
		t.Fatal("loaded open-day state for a closed day")
	}
	if _, err := x.CloseDay(2); err != nil {
		t.Fatal(err)
	}
	if got := x.Table().At(0, x.Table().FeatureIndex(FeatCoarseLogon), int(cert.Work), 2); got != 1 {
		t.Fatalf("day 2 logons = %g, want 1", got)
	}
}

// FuzzOpenDayState: an open-day accumulator blob is outside input (it is
// read back from a snapshot file). Decoding must never panic, and whatever
// decodes must re-encode to the very bytes that were read.
func FuzzOpenDayState(f *testing.F) {
	users := []string{"alice", "bob"}
	x, err := NewExtractor(users, 0, 9)
	if err != nil {
		f.Fatal(err)
	}
	for _, d := range []cert.Day{3, 4} {
		for _, e := range stateTestEvents(d) {
			if _, err := x.Apply(&e); err != nil {
				f.Fatal(err)
			}
		}
		var blob bytes.Buffer
		if err := x.SaveOpenDay(&blob, d); err != nil {
			f.Fatal(err)
		}
		f.Add(blob.Bytes())
		f.Add(blob.Bytes()[:blob.Len()/2])
	}
	f.Add([]byte{})
	f.Fuzz(func(t *testing.T, blob []byte) {
		x, err := NewExtractor(users, 0, 9)
		if err != nil {
			t.Fatal(err)
		}
		if err := x.LoadOpenDay(blob, 5); err != nil {
			if len(x.OpenDays()) != 0 {
				t.Fatalf("a refused blob opened a day: %v", err)
			}
			return
		}
		var again bytes.Buffer
		if err := x.SaveOpenDay(&again, 5); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(again.Bytes(), blob) {
			t.Fatalf("accepted blob re-encodes differently (%d bytes in, %d out)", len(blob), again.Len())
		}
		// What was accepted must also close without a panic.
		if _, err := x.CloseDay(5); err != nil {
			t.Fatal(err)
		}
	})
}

// BenchmarkExtractorApply is the committed gauge of the per-event kernel
// at 500 users, over ten days applied to an extractor whose history holds
// the ten days before them: ns and allocations per event at apply time,
// allocations per distinct first-seen key, and the cost of closing a day.
// Bars: ≤ 150 ns/event, ≤ 1 allocation per key, CloseDay ≤ 3 ms.
func BenchmarkExtractorApply(b *testing.B) {
	const warm = 10
	ids, byDay := genDays(b, 125, 2*warm)
	warmed, err := NewExtractor(ids, 0, cert.Day(len(byDay)-1))
	if err != nil {
		b.Fatal(err)
	}
	for d, evs := range byDay[:warm] {
		if err := warmed.Consume(cert.Day(d), evs); err != nil {
			b.Fatal(err)
		}
	}
	state := encodeExtractor(b, warmed)
	keysHeld := warmed.seen.Len()
	held := historyBytes(warmed)
	events := 0
	for _, evs := range byDay[warm:] {
		events += len(evs)
	}
	var closing time.Duration
	var keys, mallocs uint64
	var before, after runtime.MemStats
	b.ResetTimer()
	for n := 0; n < b.N; n++ {
		b.StopTimer()
		x, err := NewExtractor(ids, 0, cert.Day(len(byDay)-1))
		if err != nil {
			b.Fatal(err)
		}
		if err := x.LoadState(bytes.NewReader(state)); err != nil {
			b.Fatal(err)
		}
		for d := warm; d < len(byDay); d++ {
			evs := byDay[d]
			runtime.ReadMemStats(&before)
			b.StartTimer()
			for i := range evs {
				if _, err := x.Apply(&evs[i]); err != nil {
					b.Fatal(err)
				}
			}
			b.StopTimer()
			runtime.ReadMemStats(&after)
			mallocs += after.Mallocs - before.Mallocs
			keys += uint64(len(x.day(cert.Day(d)).Cands))
			start := time.Now()
			if _, err := x.CloseDay(cert.Day(d)); err != nil {
				b.Fatal(err)
			}
			closing += time.Since(start)
		}
	}
	total := float64(b.N * events)
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/total, "ns/event")
	b.ReportMetric(float64(mallocs)/total, "allocs/event")
	b.ReportMetric(float64(mallocs)/float64(keys), "allocs/key")
	b.ReportMetric(float64(closing.Microseconds())/1e3/float64(b.N*warm), "close-ms/day")
	b.ReportMetric(held/float64(keysHeld), "history-B/key")
	b.ReportMetric(held/float64(len(ids)), "history-B/user")
	b.ReportMetric(0, "ns/op")
}

// historyBytes is the heap x's first-seen history holds: the live heap
// after a collection less the live heap after the history is dropped and
// the heap collected again. It leaves x with no history.
func historyBytes(x *Extractor) float64 {
	var ms runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&ms)
	with := ms.HeapAlloc
	var empty Extractor
	x.seen = empty.seen
	runtime.GC()
	runtime.ReadMemStats(&ms)
	runtime.KeepAlive(x)
	return float64(with) - float64(ms.HeapAlloc)
}
