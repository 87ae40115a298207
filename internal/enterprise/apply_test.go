package enterprise

import (
	"bytes"
	"math/rand"
	"runtime"
	"testing"
	"time"

	"acobe/internal/cert"
	"acobe/internal/features"
	"acobe/internal/logstore"
	"acobe/internal/testkit"
)

// genDays streams a small organization's records, day by day, plus one
// record a day for a user outside the roster.
func genDays(tb testing.TB, employees, days int) (ids []string, start cert.Day, byDay [][]logstore.Record) {
	tb.Helper()
	cfg := tinyEntConfig()
	cfg.Employees = employees
	cfg.End = cfg.Start + cert.Day(days-1)
	gen, err := New(cfg)
	if err != nil {
		tb.Fatal(err)
	}
	err = gen.Stream(func(d cert.Day, recs []logstore.Record) error {
		recs = append(recs, logstore.Record{Time: d.Date().Add(8 * time.Hour), User: "nobody", Action: "Logon", Host: "h"})
		byDay = append(byDay, recs)
		return nil
	})
	if err != nil {
		tb.Fatal(err)
	}
	return gen.EmployeeIDs(), cfg.Start, byDay
}

// referenceConsume is the extraction this package ran before records were
// folded in one at a time: one whole day, sorted into canonical time order
// first, "unique" and "new" attributed to the frame of a key's first record
// in that order. The kernel must fill the same table from any order.
type referenceExtractor struct {
	table *features.Table
	seen  map[int]map[int]map[string]bool // kind → user → objects
}

func (r *referenceExtractor) consume(d cert.Day, recs []logstore.Record) {
	recs = append([]logstore.Record(nil), recs...)
	logstore.SortRecords(recs)
	add := func(feature string, u, frame int) {
		r.table.Add(u, r.table.FeatureIndex(feature), frame, d, 1)
	}
	today := map[int]map[int]map[string]bool{}
	mark := func(m map[int]map[int]map[string]bool, kind, u int, key string) bool {
		if m[kind] == nil {
			m[kind] = map[int]map[string]bool{}
		}
		if m[kind][u] == nil {
			m[kind][u] = map[string]bool{}
		}
		first := !m[kind][u][key]
		m[kind][u][key] = true
		return first
	}
	names := map[int][4]string{ // count, unique, new, extra
		kindFile:     {FeatFileEvents, FeatFileUnique, FeatFileNew, FeatFileShares},
		kindCommand:  {FeatCmdProcesses, FeatCmdUnique, FeatCmdNew, FeatCmdPowerShell},
		kindConfig:   {FeatCfgRegistry, FeatCfgUnique, FeatCfgNew, FeatCfgAccountMods},
		kindResource: {FeatResEvents, FeatResUnique, FeatResNew, FeatResServices},
	}
	const newDomainToday = numKinds // today's not-yet-historic domains
	for _, rec := range recs {
		u := r.table.UserIndex(rec.User)
		if u < 0 {
			continue
		}
		frame := int(cert.TimeframeOfHour(rec.Time.Hour()))
		if kind, extra, ok := predictable(rec.Action); ok {
			f := names[kind]
			if extra {
				add(f[3], u, frame)
			}
			if kind != kindCommand || !extra {
				add(f[0], u, frame)
			}
			if mark(today, kind, u, rec.Object) {
				add(f[1], u, frame)
				if !r.seen[kind][u][rec.Object] {
					add(f[2], u, frame)
				}
			}
			continue
		}
		switch rec.Action {
		case "HTTPRequest", "HTTPUpload", "DNSQuery":
			if rec.Action == "HTTPUpload" {
				add(FeatHTTPUploads, u, frame)
			}
			if mark(today, kindDomain, u, rec.Object) {
				add(FeatHTTPUniqueDom, u, frame)
			}
			isNew := !r.seen[kindDomain][u][rec.Object]
			if isNew {
				mark(today, newDomainToday, u, rec.Object)
			}
			if rec.Status == "failure" {
				add(FeatHTTPFail, u, frame)
				if isNew {
					add(FeatHTTPFailNew, u, frame)
				}
			} else {
				add(FeatHTTPSuccess, u, frame)
				if isNew {
					add(FeatHTTPSuccessNew, u, frame)
				}
			}
		case "Logon", "RemoteLogon":
			add(FeatLogonTotal, u, frame)
			if rec.Status == "failure" {
				add(FeatLogonFail, u, frame)
			} else {
				add(FeatLogonSuccess, u, frame)
			}
			if rec.Action == "RemoteLogon" {
				add(FeatLogonRemote, u, frame)
			}
			if mark(today, kindHost, u, rec.Host) {
				add(FeatLogonHosts, u, frame)
			}
		}
	}
	for kind, users := range today {
		if kind == kindHost || kind == kindDomain {
			continue // hosts keep no history; domains merge through newDomainToday
		}
		hist := kind
		if kind == newDomainToday {
			hist = kindDomain
		}
		for u, set := range users {
			for k := range set {
				mark(r.seen, hist, u, k)
			}
		}
	}
}

func TestKernelMatchesReference(t *testing.T) {
	ids, start, byDay := genDays(t, 8, 14)
	end := start + cert.Day(len(byDay)-1)
	x, err := NewExtractor(ids, start, end)
	if err != nil {
		t.Fatal(err)
	}
	table, err := features.NewTable(ids, FeatureNames(), cert.NumTimeframes, start, end)
	if err != nil {
		t.Fatal(err)
	}
	ref := &referenceExtractor{table: table, seen: map[int]map[int]map[string]bool{}}
	rng := rand.New(rand.NewSource(1))
	for i, recs := range byDay {
		d := start + cert.Day(i)
		ref.consume(d, recs)
		// The kernel gets the day in an order of its own.
		shuffled := append([]logstore.Record(nil), recs...)
		rng.Shuffle(len(shuffled), func(a, b int) { shuffled[a], shuffled[b] = shuffled[b], shuffled[a] })
		if err := x.Consume(d, shuffled); err != nil {
			t.Fatal(err)
		}
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
	for kind := 0; kind < numSeen; kind++ {
		for u := range ids {
			keys := x.seen.Keys(nil, u, kind)
			if len(keys) != len(ref.seen[kind][u]) {
				t.Fatalf("kind %d user %d: history holds %d keys, the reference %d", kind, u, len(keys), len(ref.seen[kind][u]))
			}
			for _, k := range keys {
				if !ref.seen[kind][u][string(k)] {
					t.Fatalf("kind %d user %d: history holds %q, the reference does not", kind, u, k)
				}
			}
		}
	}
}

// TestApplyOrderIndependent: see the CERT extractor's test of the same
// name — any permutation, batching and interleaving of a multi-day record
// set, with closes wherever they are legal and a save/restore with days
// open, leaves the bytes of the batch Consume run.
func TestApplyOrderIndependent(t *testing.T) {
	ids, start, byDay := genDays(t, 5, 8)
	batch, err := NewExtractor(ids, start, start+cert.Day(len(byDay)-1))
	if err != nil {
		t.Fatal(err)
	}
	counts := make([]int, len(byDay))
	for i, recs := range byDay {
		counts[i] = len(recs)
		if err := batch.Consume(start+cert.Day(i), recs); err != nil {
			t.Fatal(err)
		}
	}
	want := encodeEntExtractor(t, batch)

	for trial := 0; trial < 40; trial++ {
		rng := rand.New(rand.NewSource(int64(trial)))
		fresh := func() *Extractor {
			x, err := NewExtractor(ids, start, start+cert.Day(len(byDay)-1))
			if err != nil {
				t.Fatal(err)
			}
			return x
		}
		x := fresh()
		restoreAt := -1
		if trial%2 == 1 {
			restoreAt = rng.Intn(len(byDay) * 10)
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
				if _, err := x.CloseDay(start + cert.Day(d)); err != nil {
					t.Fatal(err)
				}
			},
			func(step int) {
				if step != restoreAt {
					return
				}
				// Save x whole — closed state and every open day — and go
				// on with a fresh extractor loaded from it.
				restored := fresh()
				if err := restored.LoadState(bytes.NewReader(encodeEntExtractor(t, x))); err != nil {
					t.Fatal(err)
				}
				for d, events := range x.OpenDays() {
					var blob bytes.Buffer
					if err := x.SaveOpenDay(&blob, d); err != nil {
						t.Fatal(err)
					}
					if err := restored.LoadOpenDay(blob.Bytes(), d); err != nil {
						t.Fatal(err)
					}
					if got := restored.OpenDays()[d]; got != events {
						t.Fatalf("day %v restored with %d records, saved with %d", d, got, events)
					}
				}
				x = restored
			})
		if got := encodeEntExtractor(t, x); !bytes.Equal(got, want) {
			t.Fatalf("trial %d: state after a permuted, interleaved arrival differs from the batch run", trial)
		}
		if open := x.OpenDays(); len(open) != 0 {
			t.Fatalf("trial %d: days still open after the last close: %v", trial, open)
		}
	}
}

// TestEarliestRecordSetsTheFrame pins the one order-dependent rule: a key
// named in both frames of a day is unique (and new) in the frame of its
// earliest record, whichever arrived first.
func TestEarliestRecordSetsTheFrame(t *testing.T) {
	rec := func(hour int) logstore.Record {
		return logstore.Record{Time: cert.Day(0).Date().Add(time.Duration(hour) * time.Hour), User: "e1",
			Action: "FileWrite", Object: `C:\f`, Status: "success"}
	}
	for _, order := range [][]int{{3, 10}, {10, 3}} {
		x, err := NewExtractor([]string{"e1"}, 0, 1)
		if err != nil {
			t.Fatal(err)
		}
		if err := x.Consume(0, []logstore.Record{rec(order[0]), rec(order[1])}); err != nil {
			t.Fatal(err)
		}
		tab := x.Table()
		for _, feat := range []string{FeatFileUnique, FeatFileNew} {
			off, work := tab.At(0, tab.FeatureIndex(feat), int(cert.Off), 0), tab.At(0, tab.FeatureIndex(feat), int(cert.Work), 0)
			if off != 1 || work != 0 {
				t.Errorf("arrival %v: %s = (off %g, work %g), want (1, 0): the 03:00 record is the earliest", order, feat, off, work)
			}
		}
	}
}

// BenchmarkExtractorApply is the enterprise twin of the CERT gauge: ten
// days applied to an extractor whose history holds the ten days before
// them, at 500 employees.
func BenchmarkExtractorApply(b *testing.B) {
	const warm = 10
	ids, start, byDay := genDays(b, 500, 2*warm)
	end := start + cert.Day(len(byDay)-1)
	warmed, err := NewExtractor(ids, start, end)
	if err != nil {
		b.Fatal(err)
	}
	for i, recs := range byDay[:warm] {
		if err := warmed.Consume(start+cert.Day(i), recs); err != nil {
			b.Fatal(err)
		}
	}
	var state bytes.Buffer
	if err := warmed.SaveState(&state); err != nil {
		b.Fatal(err)
	}
	keysHeld := warmed.seen.Len()
	held := historyBytes(warmed)
	events := 0
	for _, recs := range byDay[warm:] {
		events += len(recs)
	}
	var closing time.Duration
	var mallocs uint64
	var before, after runtime.MemStats
	b.ResetTimer()
	for n := 0; n < b.N; n++ {
		b.StopTimer()
		x, err := NewExtractor(ids, start, end)
		if err != nil {
			b.Fatal(err)
		}
		if err := x.LoadState(bytes.NewReader(state.Bytes())); err != nil {
			b.Fatal(err)
		}
		for i := warm; i < len(byDay); i++ {
			recs := byDay[i]
			runtime.ReadMemStats(&before)
			b.StartTimer()
			for k := range recs {
				if _, err := x.Apply(&recs[k]); err != nil {
					b.Fatal(err)
				}
			}
			b.StopTimer()
			runtime.ReadMemStats(&after)
			mallocs += after.Mallocs - before.Mallocs
			at := time.Now()
			if _, err := x.CloseDay(start + cert.Day(i)); err != nil {
				b.Fatal(err)
			}
			closing += time.Since(at)
		}
	}
	total := float64(b.N * events)
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/total, "ns/event")
	b.ReportMetric(float64(mallocs)/total, "allocs/event")
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
