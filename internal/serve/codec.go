package serve

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"strconv"
	"sync"
	"time"

	"acobe/internal/cert"
	"acobe/internal/logstore"
)

// The Event wire codec: the one place an Event becomes JSON or JSON becomes
// an Event on a hot path — the HTTP ingest body, the WAL part payload on
// append and on replay, the audit walk's leaf re-encoding. Its bytes are
// Merkle leaves and WAL frames on disk, so
// the encoder's contract is equality with json.Marshal, byte for byte.
//
// Both directions have a fast path for the canonical shape — the one
// encoding/json itself writes for an Event holding exactly one payload:
//
//	{"cert":{"Type":1,"Time":"2010-01-02T08:00:00Z","User":"u1",…}}
//
// no whitespace; the payload's keys in struct order, exact case, each at
// most once (a key may be left out); integers as plain non-negative
// decimals; strings of printable ASCII that need no escape in either
// direction of travel; a timestamp time.Time's own JSON methods take and
// give as four-digit-year UTC. Whatever is not that — an escape, a
// reordered or unknown key, both payloads, a null, a space — is handed
// whole to encoding/json, which therefore stays the only judge of what
// non-canonical input means: accept or reject, the error text and the
// decoded value are the library's by construction, and FuzzEventCodec
// holds the fast path to the same answers. The choice is made from the
// bytes (or the value) alone.

type fieldKind uint8

const (
	kindInt fieldKind = iota
	kindTime
	kindString
)

// field is one payload struct field: its key as encoding/json writes it,
// quotes and colon included, and the kind of its value.
type field struct {
	key  string
	kind fieldKind
}

// flat is either payload with its fields pulled apart by kind. Both
// payload structs hold one integer, one timestamp and at most eight
// strings; the strings are numbered in field order.
type flat struct {
	n int64
	t time.Time
	s [8]string
}

// shape is one payload kind's field table, which the one parser and the
// one writer walk. TestCodecShapesMatchStructs holds the tables, and the
// two assignments below them, to the struct definitions.
type shape struct {
	open   string // the Event wrapper down to the payload's opening brace
	fields []field
}

var certShape = shape{
	open: `{"cert":{`,
	fields: []field{
		{`"Type":`, kindInt}, {`"Time":`, kindTime}, {`"User":`, kindString}, {`"PC":`, kindString},
		{`"Activity":`, kindString}, {`"FileID":`, kindString}, {`"Direction":`, kindString},
		{`"Domain":`, kindString}, {`"FileType":`, kindString}, {`"Recipient":`, kindString},
	},
}

var recordShape = shape{
	open: `{"record":{`,
	fields: []field{
		{`"Time":`, kindTime}, {`"User":`, kindString}, {`"Host":`, kindString}, {`"Channel":`, kindString},
		{`"EventID":`, kindInt}, {`"Action":`, kindString}, {`"Object":`, kindString}, {`"Status":`, kindString},
	},
}

// load lays e's payload out in v and returns its shape, or nil for an
// Event that does not hold exactly one payload.
func (v *flat) load(e Event) *shape {
	switch {
	case e.Cert != nil && e.Record == nil:
		c := e.Cert
		v.n, v.t = int64(c.Type), c.Time
		v.s = [8]string{c.User, c.PC, c.Activity, c.FileID, c.Direction, c.Domain, c.FileType, c.Recipient}
		return &certShape
	case e.Record != nil && e.Cert == nil:
		r := e.Record
		v.n, v.t = int64(r.EventID), r.Time
		v.s = [8]string{r.User, r.Host, r.Channel, r.Action, r.Object, r.Status}
		return &recordShape
	}
	return nil
}

// store is load's inverse: v, read as sh, becomes a payload on e.
func (d *eventDecoder) store(sh *shape, v *flat, e *Event) {
	if sh == &certShape {
		e.Cert = d.certs.next(d.expect)
		*e.Cert = cert.Event{Type: cert.EventType(v.n), Time: v.t, User: v.s[0], PC: v.s[1],
			Activity: v.s[2], FileID: v.s[3], Direction: v.s[4], Domain: v.s[5], FileType: v.s[6], Recipient: v.s[7]}
		return
	}
	e.Record = d.recs.next(d.expect)
	*e.Record = logstore.Record{Time: v.t, User: v.s[0], Host: v.s[1], Channel: v.s[2],
		EventID: int(v.n), Action: v.s[3], Object: v.s[4], Status: v.s[5]}
}

// AppendEvent appends e's JSON encoding to dst: exactly the bytes
// json.Marshal(e) returns (or its error, with dst unchanged).
func AppendEvent(dst []byte, e Event) ([]byte, error) {
	var v flat
	if sh := v.load(e); sh != nil {
		if out, ok := sh.appendTo(dst, &v); ok {
			return out, nil
		}
	}
	enc, err := json.Marshal(e)
	if err != nil {
		return dst, err
	}
	return append(dst, enc...), nil
}

// appendEventArray appends events as a JSON array: the comma-joined
// element encodings in brackets, which is what encoding/json writes for a
// non-nil slice. The second result is each element's end offset in the
// returned buffer.
func appendEventArray(dst []byte, ends []int, events []Event) ([]byte, []int, error) {
	dst = append(dst, '[')
	for i := range events {
		if i > 0 {
			dst = append(dst, ',')
		}
		var err error
		if dst, err = AppendEvent(dst, events[i]); err != nil {
			return dst, ends, err
		}
		ends = append(ends, len(dst))
	}
	return append(dst, ']'), ends, nil
}

// appendTo writes the canonical encoding of v, or reports false (dst's
// contents past its length are then garbage) when v holds a value the
// canonical form cannot carry.
func (sh *shape) appendTo(dst []byte, v *flat) ([]byte, bool) {
	dst = append(dst, sh.open...)
	si := 0
	for i, f := range sh.fields {
		if i > 0 {
			dst = append(dst, ',')
		}
		dst = append(dst, f.key...)
		switch f.kind {
		case kindInt:
			dst = strconv.AppendInt(dst, v.n, 10)
		case kindTime:
			// Time.MarshalJSON is this layout plus two refusals: a year
			// that is not four digits wide and a zone hour past 23. A
			// 'Z' suffix rules the second out.
			dst = append(dst, '"')
			n0 := len(dst)
			dst = v.t.AppendFormat(dst, time.RFC3339Nano)
			if dst[n0+4] != '-' || dst[len(dst)-1] != 'Z' {
				return dst, false
			}
			dst = append(dst, '"')
		case kindString:
			s := v.s[si]
			si++
			for j := 0; j < len(s); j++ {
				// What encoding/json copies through unescaped: ASCII from
				// space up, less the quote, the backslash and the three
				// characters its HTML escaping rewrites.
				if c := s[j]; c < 0x20 || c >= 0x80 || c == '"' || c == '\\' || c == '<' || c == '>' || c == '&' {
					return dst, false
				}
			}
			dst = append(dst, '"')
			dst = append(dst, s...)
			dst = append(dst, '"')
		}
	}
	return append(dst, "}}"...), true
}

// slabEvents is how many payload structs one slab holds: small enough
// that a straggler pins a few kilobytes, large enough that the allocation
// per event all but disappears.
const slabEvents = 64

// slab hands out payload structs from small arrays instead of one heap
// object per event.
type slab[T any] struct{ free []T }

// next returns a zero T, starting a new slab sized for the want events
// still expected when the current one is used up.
func (s *slab[T]) next(want int) *T {
	if len(s.free) == 0 {
		s.free = make([]T, min(max(want, 1), slabEvents))
	}
	p := &s.free[0]
	s.free = s.free[1:]
	return p
}

// eventDecoder decodes the events of one body or part. The
// zero value is ready; it is not safe for concurrent use.
type eventDecoder struct {
	certs slab[cert.Event]
	recs  slab[logstore.Record]
	// expect is how many more events the input is thought to hold; it
	// sizes the next slab.
	expect int
	// text collects one event's string fields, so that they cost one
	// allocation of exactly their bytes.
	text []byte
	// fallback counts the inputs, events or arrays, that were handed to
	// encoding/json.
	fallback int
}

// decode decodes one Event spanning all of b into *e, which must be zero.
func (d *eventDecoder) decode(b []byte, e *Event) error {
	if end, ok := d.fast(b, 0, e); ok && end == len(b) {
		return nil
	}
	d.fallback++
	*e = Event{}
	return json.Unmarshal(b, e)
}

// arraySep separates two canonical elements of an event array.
var arraySep = []byte("}},{")

// decodeArray decodes a JSON array of Events spanning all of b, as
// json.Unmarshal into a nil []Event would.
func (d *eventDecoder) decodeArray(b []byte) ([]Event, error) {
	if len(b) > 0 && b[0] == '[' {
		d.expect = bytes.Count(b, arraySep) + 1
		evs := make([]Event, 0, d.expect)
		for p := 1; ; {
			evs = append(evs, Event{})
			end, ok := d.fast(b, p, &evs[len(evs)-1])
			if !ok || end >= len(b) {
				break
			}
			if b[end] == ']' && end+1 == len(b) {
				return evs, nil
			}
			if b[end] != ',' {
				break
			}
			p = end + 1
		}
	}
	d.fallback++
	var evs []Event
	err := json.Unmarshal(b, &evs)
	return evs, err
}

// hasAt reports whether b holds k at offset p.
func hasAt(b []byte, p int, k string) bool {
	return len(b)-p >= len(k) && string(b[p:p+len(k)]) == k
}

// fast decodes the canonical Event starting at b[p] into *e and returns
// the offset just past it. It reports false, with *e untouched, for
// anything but the canonical shape; the caller then asks encoding/json.
func (d *eventDecoder) fast(b []byte, p int, e *Event) (int, bool) {
	sh := &certShape
	if !hasAt(b, p, sh.open) {
		if sh = &recordShape; !hasAt(b, p, sh.open) {
			return 0, false
		}
	}
	p += len(sh.open)
	var (
		v    flat
		span [len(v.s)][2]int // string i is b[span[i][0]:span[i][1]]
		si   int
	)
	// The table is walked once, in order, and a field is read when its
	// key comes next: a key out of order, repeated, unknown or in another
	// case matches nothing that is left, and the walk ends short of '}'.
	for i := range sh.fields {
		f := &sh.fields[i]
		slot := si
		if f.kind == kindString {
			si++
		}
		if !hasAt(b, p, f.key) {
			continue
		}
		p += len(f.key)
		switch f.kind {
		case kindInt:
			q := p
			for q < len(b) && b[q]-'0' <= 9 {
				v.n = v.n*10 + int64(b[q]-'0')
				q++
			}
			// At most nine digits: fits an int of any width.
			if n := q - p; n == 0 || n > 9 || n > 1 && b[p] == '0' {
				return 0, false
			}
			p = q
		case kindTime, kindString:
			if p >= len(b) || b[p] != '"' {
				return 0, false
			}
			q := p + 1
			for q < len(b) && b[q] != '"' {
				if c := b[q]; c < 0x20 || c >= 0x80 || c == '\\' {
					return 0, false
				}
				q++
			}
			if q >= len(b) {
				return 0, false
			}
			if f.kind == kindString {
				span[slot] = [2]int{p + 1, q}
			} else if v.t.UnmarshalJSON(b[p:q+1]) != nil {
				// The literal is escape-free, so these are the bytes
				// encoding/json would hand the same method.
				return 0, false
			}
			p = q + 1
		}
		if p >= len(b) {
			return 0, false
		}
		if b[p] == ',' {
			p++
			continue
		}
		if !hasAt(b, p, "}}") {
			return 0, false
		}
		d.text = d.text[:0]
		for _, sp := range span {
			d.text = append(d.text, b[sp[0]:sp[1]]...)
		}
		text, off := string(d.text), 0
		for i, sp := range span {
			v.s[i] = text[off : off+sp[1]-sp[0]]
			off += sp[1] - sp[0]
		}
		d.store(sh, &v, e)
		d.expect--
		return p + 2, true
	}
	return 0, false
}

// maxIngestLine bounds a line of an ingest body: one this long or longer
// is refused. It is the 4 MiB a line and its newline had to fit when a
// bufio.Scanner cut the lines, and the refusal is still that scanner's
// error, so the answer a client gets has not changed.
const maxIngestLine = 4 * 1024 * 1024

// maxKeptBuffer is the largest scratch buffer kept for reuse — an ingest
// body's in bodyPool, a stream's part encoder's: one outsized batch must
// not stay resident for good.
const maxKeptBuffer = 1 << 20

// bodyPool holds the buffers ingest bodies are read into. Nothing decoded
// aliases a body, so a buffer goes back as soon as its body is decoded.
var bodyPool = sync.Pool{New: func() any { return new(bytes.Buffer) }}

// DecodeIngest reads an ingest body — one JSON Event per line, blank
// lines skipped, a final newline optional, CRLF tolerated — to its end and
// returns the events, with the number of them that were not in the
// codec's canonical shape and went through encoding/json. The first line
// that does not decode, or decodes to an event without exactly one
// payload, ends the call with a "line N: …" error; a read error is
// returned as it is, after whatever was read before it decoded clean. vet,
// when non-nil, sees each event once, in body order, as it is decoded.
//
// This is the whole of what POST /v1/ingest does to a body before it
// submits, so it is also what a measurement of the handler's decode cost
// should call.
func DecodeIngest(r io.Reader, vet func(*Event)) (events []Event, fallback int, err error) {
	buf := bodyPool.Get().(*bytes.Buffer)
	defer func() {
		if buf.Cap() <= maxKeptBuffer {
			buf.Reset()
			bodyPool.Put(buf)
		}
	}()
	_, rerr := buf.ReadFrom(r)
	b := buf.Bytes()
	// Lines that open an object, not lines: a body of blank lines must
	// not size anything.
	dec := eventDecoder{expect: bytes.Count(b, []byte("\n{")) + 1}
	events = make([]Event, 0, dec.expect)
	for line := 1; len(b) > 0; line++ {
		var raw []byte
		raw, b, _ = bytes.Cut(b, []byte{'\n'})
		if len(raw) >= maxIngestLine {
			return nil, dec.fallback, bufio.ErrTooLong
		}
		if n := len(raw); n > 0 && raw[n-1] == '\r' {
			raw = raw[:n-1]
		}
		if len(raw) == 0 {
			continue
		}
		events = append(events, Event{})
		e := &events[len(events)-1]
		if err := dec.decode(raw, e); err != nil {
			return nil, dec.fallback, fmt.Errorf("line %d: %v", line, err)
		}
		if !e.Valid() {
			return nil, dec.fallback, fmt.Errorf("line %d: event must carry exactly one of cert/record", line)
		}
		if vet != nil {
			vet(e)
		}
	}
	return events, dec.fallback, rerr
}
