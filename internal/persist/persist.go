// Package persist provides the little-endian binary codec shared by every
// state serializer in the repository (measurement tables, extractor
// first-seen trackers, streaming deviation windows, serve-layer
// snapshots). It exists so that each package can write a compact,
// deterministic, bit-exact encoding of its state without inventing its own
// framing, and so that every decoder is defensive by construction: length
// prefixes are capped before allocation (by MaxSliceLen, and by the bytes
// the input still holds when it can say), reads never run past the input,
// and all failures surface as sticky errors instead of panics.
//
// The codec does no buffering of its own and issues one Write or Read per
// primitive: hand it a block-buffered stream (bufio, bytes.Buffer), never a
// bare file. Its bulk paths (F64s, ReadF64sInto) convert through a scratch
// block the Writer/Reader owns, so a reused Writer or Reader allocates
// nothing per call.
//
// Determinism matters beyond aesthetics: tests prove deep state equality
// by comparing encoded bytes, so two encodings of equal state must be
// byte-identical (callers sort map keys before writing them).
package persist

import (
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"math"
)

// ErrCorrupt is wrapped by every decoding failure caused by malformed
// input (bad magic, absurd length prefix, short read).
var ErrCorrupt = errors.New("persist: corrupt state")

// MaxSliceLen caps every decoded length prefix: no well-formed state in
// this repository comes close, and anything larger is corruption that must
// not translate into a huge allocation.
const MaxSliceLen = 1 << 28

// f64Block is how many floats F64s/ReadF64sInto convert per Write/Read.
const f64Block = 512

// Writer serializes primitives with a sticky error, so call sites can
// write whole structures and check the error once.
type Writer struct {
	w   io.Writer
	err error
	buf [8]byte
	// blk is F64s' conversion block, allocated by the first F64s call so a
	// Writer that only frames a small message stays a few words.
	blk []byte
}

// NewWriter wraps w.
func NewWriter(w io.Writer) *Writer { return &Writer{w: w} }

// Err returns the first write error.
func (w *Writer) Err() error { return w.err }

func (w *Writer) write(p []byte) {
	if w.err != nil {
		return
	}
	_, w.err = w.w.Write(p)
}

// Magic writes a fixed 4-byte tag followed by a format version.
func (w *Writer) Magic(tag string, version uint32) {
	if len(tag) != 4 {
		w.fail(fmt.Errorf("persist: magic %q must be 4 bytes", tag))
		return
	}
	copy(w.buf[:4], tag)
	w.write(w.buf[:4])
	w.U32(version)
}

func (w *Writer) fail(err error) {
	if w.err == nil {
		w.err = err
	}
}

// U8 writes one byte.
func (w *Writer) U8(v uint8) {
	w.buf[0] = v
	w.write(w.buf[:1])
}

// Bool writes a bool as one byte.
func (w *Writer) Bool(v bool) {
	if v {
		w.U8(1)
	} else {
		w.U8(0)
	}
}

// U32 writes a little-endian uint32.
func (w *Writer) U32(v uint32) {
	binary.LittleEndian.PutUint32(w.buf[:4], v)
	w.write(w.buf[:4])
}

// U64 writes a little-endian uint64.
func (w *Writer) U64(v uint64) {
	binary.LittleEndian.PutUint64(w.buf[:8], v)
	w.write(w.buf[:8])
}

// I64 writes a little-endian int64.
func (w *Writer) I64(v int64) { w.U64(uint64(v)) }

// Int writes an int as int64.
func (w *Writer) Int(v int) { w.I64(int64(v)) }

// F64 writes the IEEE-754 bits of v, preserving every representable value
// (including NaN payloads and signed zeros) exactly.
func (w *Writer) F64(v float64) { w.U64(math.Float64bits(v)) }

// Bytes writes a length-prefixed byte slice.
func (w *Writer) Bytes(p []byte) {
	w.U64(uint64(len(p)))
	w.write(p)
}

// String writes a length-prefixed string.
func (w *Writer) String(s string) {
	w.U64(uint64(len(s)))
	if w.err == nil {
		_, w.err = io.WriteString(w.w, s)
	}
}

// Strings writes a length-prefixed list of strings.
func (w *Writer) Strings(ss []string) {
	w.U64(uint64(len(ss)))
	for _, s := range ss {
		w.String(s)
	}
}

// F64s writes a length-prefixed float64 slice (raw IEEE bits).
func (w *Writer) F64s(xs []float64) {
	w.U64(uint64(len(xs)))
	if w.err != nil || len(xs) == 0 {
		return
	}
	if w.blk == nil {
		w.blk = make([]byte, f64Block*8)
	}
	for len(xs) > 0 {
		n := min(len(xs), f64Block)
		for i, x := range xs[:n] {
			binary.LittleEndian.PutUint64(w.blk[i*8:], math.Float64bits(x))
		}
		w.write(w.blk[:n*8])
		xs = xs[n:]
	}
}

// Reader decodes primitives with a sticky error. Every length prefix is
// validated before any allocation — against MaxSliceLen and, when the
// input knows how many bytes it still holds, against that — so corrupt
// input fails cleanly instead of allocating what it claims.
type Reader struct {
	r   io.Reader
	rem remainer // r itself when it can bound what follows, else nil
	err error
	buf [8]byte
	blk []byte // F64s/ReadF64sInto's conversion block, as in Writer
}

// remainer is an input that reports how many bytes are still unread:
// bytes.Reader, bytes.Buffer, strings.Reader, and the serve layer's
// snapshot stream (whose file size is known at open). A length prefix
// that claims more than that is corruption, whatever MaxSliceLen allows.
type remainer interface{ Len() int }

// NewReader wraps r. Several Readers may be layered over one input in
// turn (each state blob's LoadState builds its own); the bound is asked of
// the input at every prefix, so it holds for all of them.
func NewReader(r io.Reader) *Reader {
	rem, _ := r.(remainer)
	return &Reader{r: r, rem: rem}
}

// Err returns the first decoding error.
func (r *Reader) Err() error { return r.err }

// Fail records err as the reader's sticky error (first failure wins).
// Callers use it to surface semantic validation errors through the same
// channel as framing errors.
func (r *Reader) Fail(err error) { r.fail(err) }

func (r *Reader) fail(err error) {
	if r.err == nil {
		r.err = err
	}
}

func (r *Reader) corrupt(format string, args ...any) {
	r.fail(fmt.Errorf("%w: %s", ErrCorrupt, fmt.Sprintf(format, args...)))
}

func (r *Reader) read(p []byte) {
	if r.err != nil {
		return
	}
	if _, err := io.ReadFull(r.r, p); err != nil {
		if errors.Is(err, io.EOF) || errors.Is(err, io.ErrUnexpectedEOF) {
			r.corrupt("unexpected end of input")
		} else {
			r.fail(err)
		}
	}
}

// Magic validates a 4-byte tag and returns the format version.
func (r *Reader) Magic(tag string) uint32 {
	r.read(r.buf[:4])
	if r.err == nil && string(r.buf[:4]) != tag {
		r.corrupt("bad magic %q, want %q", r.buf[:4], tag)
	}
	return r.U32()
}

// U8 reads one byte.
func (r *Reader) U8() uint8 {
	r.read(r.buf[:1])
	if r.err != nil {
		return 0
	}
	return r.buf[0]
}

// Bool reads a byte written by Writer.Bool; any value other than 0/1 is
// corruption.
func (r *Reader) Bool() bool {
	switch r.U8() {
	case 0:
		return false
	case 1:
		return true
	default:
		if r.err == nil {
			r.corrupt("invalid bool byte")
		}
		return false
	}
}

// U32 reads a little-endian uint32.
func (r *Reader) U32() uint32 {
	r.read(r.buf[:4])
	if r.err != nil {
		return 0
	}
	return binary.LittleEndian.Uint32(r.buf[:4])
}

// U64 reads a little-endian uint64.
func (r *Reader) U64() uint64 {
	r.read(r.buf[:8])
	if r.err != nil {
		return 0
	}
	return binary.LittleEndian.Uint64(r.buf[:8])
}

// I64 reads a little-endian int64.
func (r *Reader) I64() int64 { return int64(r.U64()) }

// Int reads an int64 written by Writer.Int.
func (r *Reader) Int() int { return int(r.I64()) }

// F64 reads IEEE-754 bits.
func (r *Reader) F64() float64 { return math.Float64frombits(r.U64()) }

// Len reads the length prefix of a sequence whose every element occupies
// at least one byte of input, and validates it.
func (r *Reader) Len() int { return r.count(1) }

// count reads a length prefix counting elements of at least elem encoded
// bytes each. The count must fit MaxSliceLen and the elements must fit
// what the input still holds.
func (r *Reader) count(elem int) int {
	n := r.U64()
	if r.err != nil {
		return 0
	}
	if n > MaxSliceLen {
		r.corrupt("length prefix %d exceeds cap %d", n, MaxSliceLen)
		return 0
	}
	if r.rem != nil {
		if left := r.rem.Len(); n > uint64(left)/uint64(elem) {
			r.corrupt("length prefix %d exceeds the %d bytes of input left", n, left)
			return 0
		}
	}
	return int(n)
}

// Bytes reads a length-prefixed byte slice.
func (r *Reader) Bytes() []byte {
	n := r.Len()
	if r.err != nil || n == 0 {
		return nil
	}
	p := make([]byte, n)
	r.read(p)
	if r.err != nil {
		return nil
	}
	return p
}

// String reads a length-prefixed string.
func (r *Reader) String() string { return string(r.Bytes()) }

// Strings reads a length-prefixed string list.
func (r *Reader) Strings() []string {
	n := r.count(8) // every string carries its own 8-byte prefix
	if r.err != nil || n == 0 {
		return nil
	}
	ss := make([]string, 0, min(n, 4096))
	for i := 0; i < n; i++ {
		ss = append(ss, r.String())
		if r.err != nil {
			return nil
		}
	}
	return ss
}

// F64s reads a length-prefixed float64 slice. want < 0 accepts any length
// (still capped by MaxSliceLen and the input left); otherwise the length
// must equal want.
func (r *Reader) F64s(want int) []float64 {
	n := r.count(8)
	if r.err != nil {
		return nil
	}
	if want >= 0 && n != want {
		r.corrupt("float slice has %d entries, want %d", n, want)
		return nil
	}
	if n == 0 {
		return nil
	}
	xs := make([]float64, n)
	if r.f64sInto(xs); r.err != nil {
		return nil
	}
	return xs
}

// ReadF64sInto reads a float64 slice whose length must equal len(dst),
// decoding directly into dst: no allocation beyond the Reader's own
// conversion block, which its first bulk read makes.
func (r *Reader) ReadF64sInto(dst []float64) {
	n := r.count(8)
	if r.err != nil {
		return
	}
	if n != len(dst) {
		r.corrupt("float slice has %d entries, want %d", n, len(dst))
		return
	}
	r.f64sInto(dst)
}

// f64sInto reads len(dst) raw floats, a block at a time.
func (r *Reader) f64sInto(dst []float64) {
	if r.blk == nil && len(dst) > 0 {
		r.blk = make([]byte, f64Block*8)
	}
	for len(dst) > 0 && r.err == nil {
		n := min(len(dst), f64Block)
		r.read(r.blk[:n*8])
		if r.err != nil {
			return
		}
		for i := range dst[:n] {
			dst[i] = math.Float64frombits(binary.LittleEndian.Uint64(r.blk[i*8:]))
		}
		dst = dst[n:]
	}
}
