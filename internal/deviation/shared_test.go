package deviation

import (
	"bytes"
	"math"
	"strings"
	"sync"
	"testing"

	"acobe/internal/cert"
	"acobe/internal/features"
)

func sharedTestCfg() Config {
	return Config{Window: 4, MatrixDays: 2, Delta: 3, Epsilon: 0.5, Weighted: true}
}

// sharedMeasure is a deterministic pseudo-measurement varied across every
// table coordinate.
func sharedMeasure(u, f, frame int, d cert.Day) float64 {
	return math.Abs(math.Sin(float64(u+1)*1.3+float64(f+1)*0.7+float64(frame+1)*2.1+float64(d)*0.9)) * 10
}

// sharedFixture is one shared field over four rows written by two
// row-partitioned streams (rows {0,2} and {1,3}), beside an owning stream
// over all four rows fed the same measurements.
type sharedFixture struct {
	shared  *Field
	parts   []*StreamField
	partTbl []*features.Table
	rows    [][]int
	whole   *StreamField
}

func newSharedFixture(t *testing.T, cfg Config) *sharedFixture {
	t.Helper()
	feats := []string{"f1", "f2", "f3"}
	tbl := func(users ...string) *features.Table {
		tab, err := features.NewTable(users, feats, 2, 0, 0)
		if err != nil {
			t.Fatal(err)
		}
		return tab
	}
	fx := &sharedFixture{rows: [][]int{{0, 2}, {1, 3}}}
	var err error
	if fx.shared, err = NewEmptyField(tbl("a", "b", "c", "d"), cfg); err != nil {
		t.Fatal(err)
	}
	for _, users := range [][]string{{"a", "c"}, {"b", "d"}} {
		fx.partTbl = append(fx.partTbl, tbl(users...))
	}
	for k, rows := range fx.rows {
		sf, err := NewStreamFieldInto(fx.partTbl[k], fx.shared, rows)
		if err != nil {
			t.Fatal(err)
		}
		fx.parts = append(fx.parts, sf)
	}
	if fx.whole, err = NewStreamField(tbl("a", "b", "c", "d"), cfg); err != nil {
		t.Fatal(err)
	}
	return fx
}

// fill writes day d's measurements, keyed by global row, into a table
// holding the given rows.
func (fx *sharedFixture) fill(t *testing.T, tab *features.Table, rows []int, d cert.Day) {
	t.Helper()
	if err := tab.EnsureDay(d); err != nil {
		t.Fatal(err)
	}
	for lu, row := range rows {
		for f := range tab.Features() {
			for frame := 0; frame < tab.Frames(); frame++ {
				tab.Add(lu, f, frame, d, sharedMeasure(row, f, frame, d))
			}
		}
	}
}

// closeDay runs one owner-side close: reserve, both streams advance
// concurrently, extend; while they write, read (when non-nil) runs beside
// them.
func (fx *sharedFixture) closeDay(t *testing.T, d cert.Day, read func()) {
	t.Helper()
	for k, rows := range fx.rows {
		fx.fill(t, fx.partTbl[k], rows, d)
	}
	fx.fill(t, fx.whole.table, []int{0, 1, 2, 3}, d)
	fx.shared.Reserve(d)
	var wg sync.WaitGroup
	for _, sf := range fx.parts {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if err := sf.Advance(); err != nil {
				t.Error(err)
			}
		}()
	}
	if read != nil {
		read()
	}
	wg.Wait()
	fx.shared.ExtendTo(d)
	if err := fx.whole.Advance(); err != nil {
		t.Fatal(err)
	}
}

// fieldBits flattens every value a header can reach.
func fieldBits(f *Field) []uint64 {
	var out []uint64
	for u := range f.table.Users() {
		for feat := 0; feat < f.nf; feat++ {
			for frame := 0; frame < f.frames; frame++ {
				for _, v := range f.SigmaSeries(u, feat, frame) {
					out = append(out, math.Float64bits(v))
				}
			}
		}
	}
	return out
}

// TestFrozenHeaderNeverChanges: a header frozen after a close keeps its
// day count and every value while later days are reserved, written into
// the rows behind it by concurrent streams, and extended — across the
// 8→16→32→64 capacity doublings — and is safe to read during those
// writes. Each header also equals the owning stream's field over the same
// days, so partitioning the rows changes no bit.
func TestFrozenHeaderNeverChanges(t *testing.T) {
	cfg := sharedTestCfg()
	fx := newSharedFixture(t, cfg)
	type frozen struct {
		hdr  *Field
		end  cert.Day
		bits []uint64
	}
	var headers []frozen
	storages := map[*float64]bool{}
	for d := cert.Day(0); d <= 40; d++ {
		fx.closeDay(t, d, func() {
			for _, h := range headers {
				_ = fieldBits(h.hdr) // reads race with nothing the streams write
			}
		})
		hdr := fx.shared.Freeze()
		if got, want := fieldBits(hdr), fieldBits(fx.whole.Field()); !equalBits(got, want) {
			t.Fatalf("day %v: shared field differs from the owning stream's", d)
		}
		if hdr.EndDay() >= hdr.FirstDay() {
			storages[&hdr.SigmaSeries(0, 0, 0)[0]] = true
		}
		headers = append(headers, frozen{hdr: hdr, end: hdr.EndDay(), bits: fieldBits(hdr)})
		for _, h := range headers {
			if h.hdr.EndDay() != h.end {
				t.Fatalf("day %v: header frozen at end day %v now ends %v", d, h.end, h.hdr.EndDay())
			}
			if !equalBits(fieldBits(h.hdr), h.bits) {
				t.Fatalf("day %v: values of the header frozen at end day %v changed", d, h.end)
			}
		}
	}
	if len(storages) != 4 {
		t.Fatalf("38 deviation days used %d storages, want 4 (capacities 8, 16, 32, 64)", len(storages))
	}
}

func equalBits(a, b []uint64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// TestRowPartitionedStateBytes: σ is derived state, so a restart rebuilds
// it rather than reading it back. Each partition, over its table restored
// from the table's own bytes, advances into a fresh shared field —
// concurrently, into room its owner reserved — and the field comes out bit
// for bit the one the uninterrupted closes wrote; later closes then carry
// on identically. A partition never grows the field or moves its day
// count: advancing into room nobody reserved is an error, and only the
// owner extends.
func TestRowPartitionedStateBytes(t *testing.T) {
	cfg := sharedTestCfg()
	fx := newSharedFixture(t, cfg)
	const last, more = cert.Day(12), cert.Day(16)
	for d := cert.Day(0); d <= last; d++ {
		fx.closeDay(t, d, nil)
	}
	restored := func() *sharedFixture {
		r := newSharedFixture(t, cfg)
		for k, tab := range fx.partTbl {
			var state bytes.Buffer
			if err := tab.SaveState(&state); err != nil {
				t.Fatal(err)
			}
			if err := r.partTbl[k].LoadState(&state); err != nil {
				t.Fatal(err)
			}
		}
		return r
	}
	if err := restored().parts[0].Advance(); err == nil {
		t.Fatal("partition advanced into a shared field with no room reserved")
	}
	fresh := restored()
	fresh.shared.Reserve(last)
	var wg sync.WaitGroup
	for _, sf := range fresh.parts {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if err := sf.Advance(); err != nil {
				t.Error(err)
			}
		}()
	}
	wg.Wait()
	if fresh.shared.EndDay() >= fresh.shared.FirstDay() {
		t.Fatal("advancing a partition moved the shared field's day count; only its owner may")
	}
	fresh.shared.ExtendTo(last)
	if !equalBits(fieldBits(fresh.shared), fieldBits(fx.shared)) {
		t.Fatal("shared field re-derived from its partitions' tables differs")
	}
	for d := last + 1; d <= more; d++ {
		fx.closeDay(t, d, nil)
		fresh.closeDay(t, d, nil)
	}
	if !equalBits(fieldBits(fresh.shared), fieldBits(fx.shared)) {
		t.Fatal("closes after the re-derivation differ from the uninterrupted run's")
	}
}

// TestNewStreamFieldIntoRefusesMismatch: a row-partitioned stream is
// refused when its table's shape or first day does not fit the shared
// field, and the shape refusal names both sides' counts.
func TestNewStreamFieldIntoRefusesMismatch(t *testing.T) {
	cfg := sharedTestCfg()
	shared, err := NewEmptyField(mustTable(t, []string{"a", "b"}, []string{"f1", "f2"}, 0), cfg)
	if err != nil {
		t.Fatal(err)
	}
	_, err = NewStreamFieldInto(mustTable(t, []string{"a"}, []string{"f1"}, 0), shared, []int{0})
	if err == nil || !strings.Contains(err.Error(), "1 users × 1 features × 2 frames does not match 1 rows of a shared field of 2 features × 2 frames") {
		t.Fatalf("shape mismatch: %v", err)
	}
	if _, err := NewStreamFieldInto(mustTable(t, []string{"a"}, []string{"f1", "f2"}, 1), shared, []int{0}); err == nil {
		t.Fatal("a table starting a day late was accepted")
	}
	if _, err := NewStreamFieldInto(mustTable(t, []string{"b"}, []string{"f1", "f2"}, 0), shared, []int{1}); err != nil {
		t.Fatal(err)
	}
}

func mustTable(t *testing.T, users, feats []string, start cert.Day) *features.Table {
	t.Helper()
	tab, err := features.NewTable(users, feats, 2, start, start)
	if err != nil {
		t.Fatal(err)
	}
	return tab
}
