package persist

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"math"
	"runtime"
	"testing"
)

// f64Lens straddle the conversion block (f64Block floats) and go well
// past it.
var f64Lens = []int{0, 1, f64Block - 1, f64Block, f64Block + 1, 100_000}

// testFloats is n floats whose bit patterns must survive a round trip
// exactly: signed zeros, infinities, quiet and signalling NaNs with
// payloads, subnormals, and ordinary values in between.
func testFloats(n int) []float64 {
	special := []uint64{
		0, 1 << 63, // +0, -0
		0x7ff0000000000000, 0xfff0000000000000, // ±Inf
		0x7ff8000000000001, 0xfff8dead0000beef, 0x7ff0000000000001, // NaN payloads
		1, 0x800fffffffffffff, // subnormals
		math.Float64bits(math.MaxFloat64), math.Float64bits(-math.SmallestNonzeroFloat64),
	}
	xs := make([]float64, n)
	for i := range xs {
		if i%3 == 0 {
			xs[i] = math.Float64frombits(special[(i/3)%len(special)])
		} else {
			xs[i] = float64(i)*1.25 - 7
		}
	}
	return xs
}

func sameBits(a, b []float64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if math.Float64bits(a[i]) != math.Float64bits(b[i]) {
			return false
		}
	}
	return true
}

// TestRoundTrip writes every primitive and reads it back, bit for bit,
// with the input consumed to its last byte.
func TestRoundTrip(t *testing.T) {
	var buf bytes.Buffer
	w := NewWriter(&buf)
	w.Magic("TEST", 7)
	w.U8(0xab)
	w.Bool(true)
	w.Bool(false)
	w.U32(0xdeadbeef)
	w.U64(math.MaxUint64)
	w.I64(math.MinInt64)
	w.Int(-42)
	w.F64(math.Float64frombits(0xfff8dead0000beef))
	w.F64(math.Copysign(0, -1))
	w.Bytes(nil)
	w.Bytes([]byte{1, 2, 3})
	w.String("")
	w.String("héllo")
	w.Strings(nil)
	w.Strings([]string{"a", "", "ccc"})
	for _, n := range f64Lens {
		w.F64s(testFloats(n))
		w.F64s(testFloats(n))
	}
	if err := w.Err(); err != nil {
		t.Fatal(err)
	}

	in := bytes.NewReader(buf.Bytes())
	r := NewReader(in)
	if v := r.Magic("TEST"); v != 7 {
		t.Fatalf("magic version %d", v)
	}
	if v := r.U8(); v != 0xab {
		t.Fatalf("U8 %x", v)
	}
	if !r.Bool() || r.Bool() {
		t.Fatal("bools")
	}
	if v := r.U32(); v != 0xdeadbeef {
		t.Fatalf("U32 %x", v)
	}
	if v := r.U64(); v != math.MaxUint64 {
		t.Fatalf("U64 %x", v)
	}
	if v := r.I64(); v != math.MinInt64 {
		t.Fatalf("I64 %d", v)
	}
	if v := r.Int(); v != -42 {
		t.Fatalf("Int %d", v)
	}
	if v := math.Float64bits(r.F64()); v != 0xfff8dead0000beef {
		t.Fatalf("NaN payload %x", v)
	}
	if v := math.Float64bits(r.F64()); v != 1<<63 {
		t.Fatalf("-0 came back as %x", v)
	}
	if v := r.Bytes(); v != nil {
		t.Fatalf("empty bytes %v", v)
	}
	if v := r.Bytes(); !bytes.Equal(v, []byte{1, 2, 3}) {
		t.Fatalf("bytes %v", v)
	}
	if v := r.String(); v != "" {
		t.Fatalf("empty string %q", v)
	}
	if v := r.String(); v != "héllo" {
		t.Fatalf("string %q", v)
	}
	if v := r.Strings(); v != nil {
		t.Fatalf("empty strings %v", v)
	}
	if v := r.Strings(); fmt.Sprint(v) != "[a  ccc]" {
		t.Fatalf("strings %q", v)
	}
	for _, n := range f64Lens {
		want := testFloats(n)
		if got := r.F64s(-1); !sameBits(got, want) {
			t.Fatalf("F64s at %d floats differs", n)
		}
		got := make([]float64, n)
		if r.ReadF64sInto(got); !sameBits(got, want) {
			t.Fatalf("ReadF64sInto at %d floats differs", n)
		}
	}
	if err := r.Err(); err != nil {
		t.Fatal(err)
	}
	if in.Len() != 0 {
		t.Fatalf("%d bytes left unread", in.Len())
	}
}

// allocated runs f and returns the bytes it allocated.
func allocated(f func()) uint64 {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	f()
	runtime.ReadMemStats(&after)
	return after.TotalAlloc - before.TotalAlloc
}

// plain hides a reader's Len, so the Reader over it knows no bound.
type plain struct{ io.Reader }

// TestFailuresStickAndWrapErrCorrupt: every malformed input fails with an
// error wrapping ErrCorrupt, the failed call and every later one return
// zero values, and the first error is the one that stays.
func TestFailuresStickAndWrapErrCorrupt(t *testing.T) {
	encode := func(f func(*Writer)) []byte {
		var buf bytes.Buffer
		w := NewWriter(&buf)
		f(w)
		if err := w.Err(); err != nil {
			t.Fatal(err)
		}
		return buf.Bytes()
	}
	floats := encode(func(w *Writer) { w.F64s([]float64{1, 2, 3}) })
	cases := []struct {
		name string
		in   []byte
		read func(*Reader)
	}{
		{"short word", []byte{1, 2, 3}, func(r *Reader) { r.U64() }},
		{"short bytes", encode(func(w *Writer) { w.Bytes(make([]byte, 9)) })[:12], func(r *Reader) { r.Bytes() }},
		{"short floats", floats[:len(floats)-1], func(r *Reader) { r.F64s(3) }},
		{"bad magic", encode(func(w *Writer) { w.Magic("ABCD", 1) }), func(r *Reader) { r.Magic("ABCE") }},
		{"bad bool", []byte{2}, func(r *Reader) { r.Bool() }},
		{"prefix over the cap", encode(func(w *Writer) { w.U64(MaxSliceLen + 1) }), func(r *Reader) { r.Bytes() }},
		{"float count over the input left", encode(func(w *Writer) { w.U64(4); w.U64(0); w.U64(0); w.U64(0) }), func(r *Reader) { r.F64s(-1) }},
		{"string count over the input left", encode(func(w *Writer) { w.U64(3); w.U64(0); w.U64(0) }), func(r *Reader) { r.Strings() }},
		{"wrong float count", floats, func(r *Reader) { r.F64s(4) }},
		{"wrong float count into", floats, func(r *Reader) { r.ReadF64sInto(make([]float64, 2)) }},
	}
	for _, c := range cases {
		for _, bounded := range []bool{true, false} {
			t.Run(fmt.Sprintf("%s/bounded=%v", c.name, bounded), func(t *testing.T) {
				var in io.Reader = bytes.NewReader(c.in)
				if !bounded {
					in = plain{in}
				}
				r := NewReader(in)
				c.read(r)
				first := r.Err()
				if !errors.Is(first, ErrCorrupt) {
					t.Fatalf("error %v does not wrap ErrCorrupt", first)
				}
				if r.U64() != 0 || r.Bytes() != nil || r.F64s(-1) != nil || r.Strings() != nil || r.Bool() {
					t.Fatal("a failed reader returned data")
				}
				r.Fail(errors.New("later"))
				if r.Err() != first {
					t.Fatalf("sticky error replaced: %v", r.Err())
				}
			})
		}
	}

	w := NewWriter(io.Discard)
	w.Magic("TOOLONG", 1)
	if w.Err() == nil {
		t.Fatal("a magic that is not 4 bytes was written")
	}
	w.U64(1)
	if w.Err() == nil {
		t.Fatal("writer error did not stick")
	}
}

// TestPrefixBoundedByInput: a length prefix that passes MaxSliceLen but
// claims more than the input holds fails before anything is allocated for
// it — the input says how much is left, the codec believes it.
func TestPrefixBoundedByInput(t *testing.T) {
	var buf bytes.Buffer
	w := NewWriter(&buf)
	w.U64(MaxSliceLen) // 256 MiB of bytes, 2 GiB of floats
	w.U64(0)
	in := buf.Bytes()
	for name, read := range map[string]func(*Reader){
		"Bytes":   func(r *Reader) { r.Bytes() },
		"F64s":    func(r *Reader) { r.F64s(-1) },
		"Strings": func(r *Reader) { r.Strings() },
		"Len":     func(r *Reader) { r.Len() },
	} {
		var r *Reader
		got := allocated(func() {
			r = NewReader(bytes.NewReader(in))
			read(r)
		})
		if !errors.Is(r.Err(), ErrCorrupt) {
			t.Fatalf("%s: error %v does not wrap ErrCorrupt", name, r.Err())
		}
		if got > 1<<16 {
			t.Fatalf("%s: allocated %d bytes for a 16-byte input", name, got)
		}
	}
}

// TestBulkPathsDoNotAllocate pins the float paths at zero allocations per
// call on a reused Writer and Reader, and a Writer that never writes
// floats at the size of its few words (it is built per proof, per
// manifest, per seal).
func TestBulkPathsDoNotAllocate(t *testing.T) {
	for _, n := range []int{20, f64Block + 1} {
		xs := testFloats(n)
		var buf bytes.Buffer
		w := NewWriter(&buf)
		w.F64s(xs)
		enc := append([]byte(nil), buf.Bytes()...)
		if a := testing.AllocsPerRun(100, func() {
			buf.Reset()
			w.F64s(xs)
		}); a != 0 {
			t.Fatalf("Writer.F64s of %d floats: %v allocs/op", n, a)
		}
		in := bytes.NewReader(enc)
		r := NewReader(in)
		dst := make([]float64, n)
		r.ReadF64sInto(dst)
		if a := testing.AllocsPerRun(100, func() {
			in.Reset(enc)
			r.ReadF64sInto(dst)
		}); a != 0 || r.Err() != nil {
			t.Fatalf("Reader.ReadF64sInto of %d floats: %v allocs/op, err %v", n, a, r.Err())
		}
	}

	var buf bytes.Buffer
	head := make([]byte, 32)
	if a := testing.AllocsPerRun(100, func() {
		buf.Reset()
		w := NewWriter(&buf)
		w.Magic("SMAL", 1)
		w.Bytes(head)
		w.U64(9)
		w.Bool(true)
	}); a != 1 {
		t.Fatalf("a small message costs %v allocations, want the Writer alone", a)
	}
	if per := allocated(func() {
		for i := 0; i < 1000; i++ {
			NewWriter(&buf).U64(1)
		}
	}) / 1000; per > 128 {
		t.Fatalf("a Writer that writes no floats costs %d bytes", per)
	}
}

// BenchmarkPersistF64s is the codec's bulk path alone, at a snapshot's
// typical series length and at a long one, against an in-memory stream.
func BenchmarkPersistF64s(b *testing.B) {
	for _, n := range []int{20, 4096} {
		xs := testFloats(n)
		var buf bytes.Buffer
		w := NewWriter(&buf)
		w.F64s(xs)
		enc := append([]byte(nil), buf.Bytes()...)
		b.Run(fmt.Sprintf("write/n=%d", n), func(b *testing.B) {
			b.SetBytes(int64(len(enc)))
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				buf.Reset()
				w.F64s(xs)
			}
			if w.Err() != nil {
				b.Fatal(w.Err())
			}
		})
		b.Run(fmt.Sprintf("read/n=%d", n), func(b *testing.B) {
			in := bytes.NewReader(enc)
			r := NewReader(in)
			dst := make([]float64, n)
			b.SetBytes(int64(len(enc)))
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				in.Reset(enc)
				r.ReadF64sInto(dst)
			}
			if r.Err() != nil {
				b.Fatal(r.Err())
			}
		})
	}
}

// fuzzOps is how many operations a FuzzPersistReader script byte selects
// from.
const fuzzOps = 13

// fuzzStep runs the read operation a script byte selects and reports how
// many bytes of results it returned.
func fuzzStep(r *Reader, op byte) int {
	switch k := int(op / fuzzOps); op % fuzzOps {
	case 0:
		r.U8()
	case 1:
		r.Bool()
	case 2:
		r.U32()
	case 3:
		r.U64()
	case 4:
		r.F64()
	case 5:
		r.Magic("FUZZ")
	case 6:
		r.Len()
	case 7:
		return len(r.Bytes())
	case 8:
		return len(r.String())
	case 9:
		n := 0
		for _, s := range r.Strings() {
			n += 8 + len(s)
		}
		return n
	case 10:
		return 8 * len(r.F64s(-1))
	case 11:
		return 8 * len(r.F64s(k))
	case 12:
		r.ReadF64sInto(make([]float64, k))
	}
	return 0
}

// FuzzPersistReader drives a Reader over arbitrary bytes through an
// arbitrary sequence of reads: nothing panics, nothing comes back that the
// input did not hold, a failure sticks, and the memory allocated stays
// within a small multiple of the input per operation — a length prefix
// cannot make the codec allocate what it claims.
func FuzzPersistReader(f *testing.F) {
	var buf bytes.Buffer
	w := NewWriter(&buf)
	w.Magic("FUZZ", 1)
	w.Strings([]string{"alpha", "", "b"})
	w.F64s(testFloats(18))
	w.Bytes([]byte("payload"))
	w.F64s(testFloats(f64Block + 3))
	f.Add([]byte{5, 9, 11 + fuzzOps*18, 7, 10}, buf.Bytes())
	f.Add([]byte{5, 9, 12 + fuzzOps*18, 7, 10}, buf.Bytes())
	f.Add([]byte{10}, []byte{0, 0, 0, 8, 0, 0, 0, 0}) // 2^27 floats claimed, none there
	f.Add([]byte{7, 7}, []byte{0xff, 0xff, 0xff, 0x0f, 0, 0, 0, 0, 1})
	f.Add([]byte{9}, []byte{2, 0, 0, 0, 0, 0, 0, 0, 0xff, 0xff, 0, 0, 0, 0, 0, 0})
	f.Fuzz(func(t *testing.T, script, data []byte) {
		if len(script) > 64 {
			script = script[:64]
		}
		returned, failedAt := 0, -1
		got := allocated(func() {
			r := NewReader(bytes.NewReader(data))
			for i, op := range script {
				n := fuzzStep(r, op)
				if failedAt >= 0 && n != 0 {
					t.Fatalf("op %d returned %d bytes after the reader failed at op %d", i, n, failedAt)
				}
				if r.Err() != nil && failedAt < 0 {
					failedAt = i
				}
				returned += n
			}
		})
		if returned > len(data) {
			t.Fatalf("returned %d bytes from a %d-byte input", returned, len(data))
		}
		// Per operation: the result (at most the input left, a string
		// header per 8 input bytes) and, for ReadF64sInto, the fuzz body's
		// own destination (8 bytes × at most 255/fuzzOps floats); once: the Reader
		// and its conversion block.
		bound := uint64(2*f64Block*8 + len(script)*(4*len(data)+512))
		if got > bound {
			t.Fatalf("allocated %d bytes reading a %d-byte input with %d operations (bound %d)", got, len(data), len(script), bound)
		}
	})
}
