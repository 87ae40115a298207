package deviation

import (
	"bytes"
	"math"
	"sync"
	"testing"

	"acobe/internal/cert"
	"acobe/internal/features"
)

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
				tab.Add(lu, f, frame, d, stateMeasure(row, f, frame, d))
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
	cfg := stateTestCfg()
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

// TestRowPartitionedStateBytes: a row-partitioned stream saves exactly the
// bytes an owning stream over the same table would, and loading every
// partition into a fresh shared field — side by side, into room its owner
// reserved; a partition never grows the field itself — restores it bit for
// bit.
func TestRowPartitionedStateBytes(t *testing.T) {
	cfg := stateTestCfg()
	fx := newSharedFixture(t, cfg)
	const last = cert.Day(12)
	for d := cert.Day(0); d <= last; d++ {
		fx.closeDay(t, d, nil)
	}
	fresh := newSharedFixture(t, cfg)
	var wg sync.WaitGroup
	for k, sf := range fx.parts {
		own, err := NewStreamField(fx.partTbl[k], cfg)
		if err != nil {
			t.Fatal(err)
		}
		if err := own.Advance(); err != nil {
			t.Fatal(err)
		}
		state := encodeStream(t, sf)
		if !bytes.Equal(state, encodeStream(t, own)) {
			t.Fatalf("partition %d saves different bytes than an owning stream over its table", k)
		}
		if err := fresh.partTbl[k].EnsureDay(last); err != nil {
			t.Fatal(err)
		}
		if k == 0 {
			if err := fresh.parts[k].LoadState(bytes.NewReader(state)); err == nil {
				t.Fatal("partition loaded into a shared field with no room reserved")
			}
			fresh.shared.Reserve(last)
		}
		wg.Add(1)
		go func() {
			defer wg.Done()
			if err := fresh.parts[k].LoadState(bytes.NewReader(state)); err != nil {
				t.Error(err)
			}
		}()
	}
	wg.Wait()
	if fresh.shared.EndDay() >= fresh.shared.FirstDay() {
		t.Fatal("loading a partition moved the shared field's day count; only its owner may")
	}
	fresh.shared.ExtendTo(last)
	if !equalBits(fieldBits(fresh.shared), fieldBits(fx.shared)) {
		t.Fatal("shared field restored from its partitions differs")
	}
}
