package serve

import (
	"bytes"
	"context"
	"encoding/binary"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"reflect"
	"testing"
	"time"

	"acobe/internal/cert"
	"acobe/internal/logstore"
)

// TestCodecShapesMatchStructs holds the codec's two field tables to the
// payload structs: same fields, same order, same kinds, keys spelled as
// encoding/json spells them. A field added to cert.Event or
// logstore.Record fails here before it can be dropped on the wire.
func TestCodecShapesMatchStructs(t *testing.T) {
	for _, tc := range []struct {
		sh  *shape
		typ reflect.Type
	}{
		{&certShape, reflect.TypeOf(cert.Event{})},
		{&recordShape, reflect.TypeOf(logstore.Record{})},
	} {
		if got, want := len(tc.sh.fields), tc.typ.NumField(); got != want {
			t.Fatalf("%v: table has %d fields, struct has %d", tc.typ, got, want)
		}
		ints, times, strs := 0, 0, 0
		for i, f := range tc.sh.fields {
			sf := tc.typ.Field(i)
			if sf.Tag.Get("json") != "" {
				t.Fatalf("%v.%s grew a json tag; the codec writes field names", tc.typ, sf.Name)
			}
			if want := `"` + sf.Name + `":`; f.key != want {
				t.Errorf("%v field %d: key %s, want %s", tc.typ, i, f.key, want)
			}
			var want fieldKind
			switch {
			case sf.Type == reflect.TypeOf(time.Time{}):
				want, times = kindTime, times+1
			case sf.Type.Kind() == reflect.String:
				want, strs = kindString, strs+1
			case sf.Type.Kind() == reflect.Int:
				want, ints = kindInt, ints+1
			default:
				t.Fatalf("%v.%s has type %v, which the codec has no kind for", tc.typ, sf.Name, sf.Type)
			}
			if f.kind != want {
				t.Errorf("%v.%s: kind %d, want %d", tc.typ, sf.Name, f.kind, want)
			}
		}
		if ints != 1 || times != 1 || strs > len(flat{}.s) {
			t.Fatalf("%v: %d ints, %d times, %d strings do not fit the flat form", tc.typ, ints, times, strs)
		}
	}
}

// codecSamples is a batch with every field of both payload kinds set to a
// distinct value (so a crossed assignment in load/store shows), the
// timestamps and strings that leave the canonical shape, and the two
// invalid payload combinations.
func codecSamples() []Event {
	at := time.Date(2010, 3, 4, 5, 6, 7, 0, time.UTC)
	return []Event{
		{Cert: &cert.Event{Type: cert.EventFile, Time: at, User: "u", PC: "pc", Activity: "a",
			FileID: "f", Direction: "d", Domain: "dom", FileType: "ft", Recipient: "r"}},
		{Record: &logstore.Record{Time: at.Add(123456789), User: "u", Host: "h", Channel: "c",
			EventID: 4688, Action: "a", Object: "o", Status: "s"}},
		{Cert: &cert.Event{Type: cert.EventLogon, Time: at.Add(500 * time.Millisecond), User: "alice"}},
		{Cert: &cert.Event{}},
		{Record: &logstore.Record{}},
		{Cert: &cert.Event{Type: -3, Time: at, User: `quote " backslash \ slash /`}},
		{Record: &logstore.Record{Time: at, Object: `HKLM\Software\<run>&`, Status: "tab\tnewline\nnul\x00del\x7f"}},
		{Cert: &cert.Event{Time: at, User: "é \u2028 \u2029 \xff\xfe", PC: "日本"}},
		{Cert: &cert.Event{Time: at.In(time.FixedZone("", 2*3600))}},
		{Cert: &cert.Event{Time: at.In(time.FixedZone("zero", 0))}},
		{Record: &logstore.Record{Time: time.Date(0, 1, 1, 0, 0, 0, 0, time.UTC)}},
		{Record: &logstore.Record{Time: time.Date(-1, 1, 1, 0, 0, 0, 0, time.UTC)}},
		{},
		{Cert: &cert.Event{User: "both"}, Record: &logstore.Record{User: "both"}},
	}
}

// TestAppendEventMatchesMarshal pins the encoder's contract on the
// samples, errors included.
func TestAppendEventMatchesMarshal(t *testing.T) {
	samples := append(codecSamples(),
		Event{Cert: &cert.Event{Time: time.Date(10000, 1, 1, 0, 0, 0, 0, time.UTC)}},
		Event{Cert: &cert.Event{Time: time.Date(2010, 1, 1, 0, 0, 0, 0, time.FixedZone("", 24*3600))}},
	)
	for i := range samples {
		want, werr := json.Marshal(&samples[i])
		got, gerr := AppendEvent([]byte("prefix"), samples[i])
		if (werr != nil) != (gerr != nil) || werr != nil && werr.Error() != gerr.Error() {
			t.Fatalf("sample %d: error %v, json.Marshal's is %v", i, gerr, werr)
		}
		if string(got) != "prefix"+string(want) {
			t.Fatalf("sample %d:\n got %s\nwant prefix%s", i, got, want)
		}
	}
}

// TestPartPayloadBytes compares the part encoder with the payload as
// encoding/json assembles it, byte for byte, and the bodies with each
// element's own json.Marshal: these bytes are WAL frames and Merkle
// leaves on disk. The encoder is reused across the batches, as a shard
// reuses its own.
func TestPartPayloadBytes(t *testing.T) {
	var samples []Event
	for _, e := range codecSamples() {
		if _, err := json.Marshal(&e); err == nil {
			samples = append(samples, e)
		} else if _, _, err := encodePartPayload(1, 1, []Event{e}); err == nil {
			t.Fatalf("part encoder took %s, which json.Marshal refuses", describe(e))
		}
	}
	var pe partEncoder
	for _, events := range [][]Event{nil, {}, samples[:1], samples[1:2], samples, samples[:3]} {
		ref := []byte{recEventsPart}
		ref = binary.LittleEndian.AppendUint64(ref, 77)
		ref = binary.LittleEndian.AppendUint32(ref, 3)
		arr, err := json.Marshal(append([]Event{}, events...))
		if err != nil {
			t.Fatal(err)
		}
		ref = append(ref, arr...)
		payload, bodies, err := pe.encode(77, 3, events)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(payload, ref) {
			t.Fatalf("%d events:\n got %q\nwant %q", len(events), payload, ref)
		}
		if len(bodies) != len(events) {
			t.Fatalf("%d bodies for %d events", len(bodies), len(events))
		}
		for i := range events {
			want, _ := json.Marshal(&events[i])
			if !bytes.Equal(bodies[i], want) {
				t.Fatalf("body %d: %q, want %q", i, bodies[i], want)
			}
		}
		// The full sample batch holds the two invalid events, which a
		// record may not.
		rec, err := decodeRecord(payload)
		if len(events) == len(samples) {
			if err == nil {
				t.Fatal("record holding invalid events decoded")
			}
			continue
		}
		if err != nil {
			t.Fatal(err)
		}
		if rec.batchID != 77 || rec.parts != 3 || len(rec.events) != len(events) {
			t.Fatalf("payload decodes to batch %d, %d parts, %d events", rec.batchID, rec.parts, len(rec.events))
		}
	}
}

// codecRefusals is what the decoder's fast path must hand to
// encoding/json, valid and invalid alike: the seed corpus of
// FuzzEventCodec and the HTTP conformance table's lines.
var codecRefusals = []string{
	`{"cert":{"Type":1,"Time":"2010-01-02T08:00:00Z","User":"a\"b"}}`,
	`{"cert":{"Type":1,"Time":"2010-01-02T08:00:00Z","User":"a\\b"}}`,
	`{"cert":{"Type":1,"Time":"2010-01-02T08:00:00Z","User":"\u00e9"}}`,
	`{"cert":{"Type":1,"Time":"2010-01-02T08:00:00Z","User":"é"}}`,
	"{\"cert\":{\"Type\":1,\"Time\":\"2010-01-02T08:00:00Z\",\"User\":\"a\u2028b\"}}",
	"{\"cert\":{\"Type\":1,\"Time\":\"2010-01-02T08:00:00Z\",\"User\":\"a\xffb\"}}",
	"{\"cert\":{\"Type\":1,\"Time\":\"2010-01-02T08:00:00Z\",\"User\":\"tab\there\"}}",
	`{"cert":{"Type":1,"Type":2,"Time":"2010-01-02T08:00:00Z"}}`,
	`{"cert":{"TYPE":1,"time":"2010-01-02T08:00:00Z","user":"folded"}}`,
	`{"CERT":{"Type":1}}`,
	`{"cert":{"Time":"2010-01-02T08:00:00Z","Type":1}}`,
	`{"cert":{"Type":1,"Extra":true,"User":"u"}}`,
	`{"cert":{"Type":1},"more":[1,{"a":"}}"}]}`,
	`{"cert":null}`,
	`{"cert":{}}`,
	`{}`,
	`null`,
	`{"cert":{"Type":1,"User":"u"},"record":{"User":"u"}}`,
	`{"cert":{"Type":1},"cert":{"Type":2}}`,
	` {"cert":{"Type":1}}`,
	`{"cert":{"Type":1}} `,
	`{"cert": {"Type":1}}`,
	`{"cert":{"Type": 1,"User":"u"}}`,
	"{\"cert\":{\"Type\":1}}\r",
	"{\n  \"cert\": {\n    \"Type\": 1\n  }\n}",
	`{"cert":{"Type":01}}`,
	`{"cert":{"Type":1e0}}`,
	`{"cert":{"Type":-1}}`,
	`{"cert":{"Type":1.5}}`,
	`{"cert":{"Type":"1"}}`,
	`{"cert":{"Type":1234567890123456789}}`,
	`{"cert":{"Type":12345678901234567890}}`,
	`{"record":{"EventID":1234567890}}`,
	`{"cert":{"Type":}}`,
	`{"cert":{"Type":1,}}`,
	`{"cert":{"Time":"2010-01-02t08:00:00z"}}`,
	`{"cert":{"Time":"2010-01-02 08:00:00Z"}}`,
	`{"cert":{"Time":"2016-12-31T23:59:60Z"}}`,
	`{"cert":{"Time":"2010-02-30T08:00:00Z"}}`,
	`{"cert":{"Time":"10000-01-02T08:00:00Z"}}`,
	`{"cert":{"Time":"2010-01-02T24:00:00Z"}}`,
	`{"cert":{"Time":"2010-1-2T8:00:00Z"}}`,
	`{"cert":{"Time":"2010-01-02T08:00:00\u005a"}}`,
	`{"cert":{"Time":""}}`,
	`{"cert":{"Time":null}}`,
	`{"cert":{"Time":20100102}}`,
	`{"cert":{"User":"unterminated}}`,
	`{"cert":{"User":"u"}`,
	`{"cert":{"User":"u"}}}`,
	`{"cert":{"User":"u"}}{"cert":{"User":"v"}}`,
	`{"cert":{"User":"u"}}trailing`,
	`{"record":{"Time":"2010-01-02T08:00:00Z","User":"u","Host":"h","Channel":"Sysmon","EventID":1,"Action":"ProcessCreate","Object":"C:\\Windows\\cmd.exe","Status":"success"}}`,
	`[]`,
	`[ ]`,
	`[null]`,
	`[{}]`,
	`[{"cert":{"Type":1}},]`,
	`[{"cert":{"Type":1}} ,{"cert":{"Type":2}}]`,
	`[{"cert":{"Type":1}},{"cert":{"Type":2}}]]`,
	`[{"cert":{"Type":1}}`,
	`[{"cert":{"Type":1}},{"record":{"EventID":2}},{"cert":{"User":"\n"}}]`,
}

// codecTaken is what looks as if it should be on that list and is not:
// inputs the fast path takes because nothing in them needs the library —
// characters only the encoder escapes, a brace pair inside a string, keys
// left out — or because the one library call it makes, Time.UnmarshalJSON
// on the literal, is the judge encoding/json itself would ask.
var codecTaken = []string{
	`{"cert":{"Type":1,"Time":"2010-01-02T08:00:00Z","User":"<a>&"}}`,
	`{"cert":{"Time":"2010-01-02T08:00:00.5Z"}}`,
	`{"cert":{"Time":"2010-01-02T08:00:00.123456789Z"}}`,
	`{"cert":{"Time":"2010-01-02T08:00:00.1234567891Z"}}`,
	`{"cert":{"Time":"2010-01-02T08:00:00,5Z"}}`,
	`{"cert":{"Time":"2010-01-02T08:00:00+02:00"}}`,
	`{"cert":{"Time":"2010-01-02T08:00:00+00:00"}}`,
	`{"cert":{"Time":"2010-01-02T08:00:00+24:00"}}`,
	`{"cert":{"Time":"0000-01-01T00:00:00Z"}}`,
	`{"cert":{"User":"a }} b","PC":"}}"}}`,
	`{"cert":{"Type":4,"User":"u","Domain":"d"}}`,
	`{"cert":{"Recipient":"r"}}`,
	"{\"record\":{\"Time\":\"2010-01-02T08:00:00-07:00\",\"EventID\":0,\"Status\":\"<raw>&\x7f\"}}",
}

// checkDecodeAgainstJSON decodes data both ways, as one Event and as an
// array, and fails unless the codec and json.Unmarshal into a zero value
// agree on whether it is an error and on the value (reflect.DeepEqual,
// which for a time.Time includes the location).
func checkDecodeAgainstJSON(t *testing.T, data []byte) {
	t.Helper()
	var want, got Event
	werr := json.Unmarshal(data, &want)
	var dec eventDecoder
	gerr := dec.decode(data, &got)
	if (werr != nil) != (gerr != nil) || werr != nil && werr.Error() != gerr.Error() {
		t.Fatalf("decode %q: error %v, json.Unmarshal's is %v", data, gerr, werr)
	}
	if werr == nil && !reflect.DeepEqual(got, want) {
		t.Fatalf("decode %q:\n got %s\nwant %s", data, describe(got), describe(want))
	}
	var wantArr []Event
	werr = json.Unmarshal(data, &wantArr)
	gotArr, gerr := dec.decodeArray(data)
	if (werr != nil) != (gerr != nil) || werr != nil && werr.Error() != gerr.Error() {
		t.Fatalf("decodeArray %q: error %v, json.Unmarshal's is %v", data, gerr, werr)
	}
	if werr == nil && !reflect.DeepEqual(gotArr, wantArr) {
		t.Fatalf("decodeArray %q:\n got %d events\nwant %d events", data, len(gotArr), len(wantArr))
	}
}

func describe(e Event) string {
	return fmt.Sprintf("cert=%+v record=%+v", e.Cert, e.Record)
}

// TestCodecRefusals runs the refusal table through the differential check
// and asserts each entry really did take the library path — the table is
// only a corpus of refusals while that holds.
func TestCodecRefusals(t *testing.T) {
	for _, in := range codecRefusals {
		checkDecodeAgainstJSON(t, []byte(in))
		var dec eventDecoder
		var e Event
		_ = dec.decode([]byte(in), &e)
		if dec.fallback != 1 {
			t.Errorf("fast path took %q", in)
		}
	}
}

// TestCodecFastPath is the other side: what the encoder writes for a
// canonical event, and the codecTaken table, decode without the library,
// to the library's value.
func TestCodecFastPath(t *testing.T) {
	var lines [][]byte
	for _, e := range codecSamples()[:5] {
		b, err := json.Marshal(&e)
		if err != nil {
			t.Fatal(err)
		}
		lines = append(lines, b)
	}
	for _, in := range codecTaken {
		lines = append(lines, []byte(in))
	}
	var dec eventDecoder
	for _, b := range lines {
		checkDecodeAgainstJSON(t, b)
		var e Event
		if err := dec.decode(b, &e); err != nil || dec.fallback != 0 {
			t.Fatalf("%s: err %v, %d fallbacks", b, err, dec.fallback)
		}
	}
	arr := append(append([]byte{'['}, bytes.Join(lines, []byte{','})...), ']')
	checkDecodeAgainstJSON(t, arr)
	if evs, err := dec.decodeArray(arr); err != nil || len(evs) != len(lines) || dec.fallback != 0 {
		t.Fatalf("array of canonical events: err %v, %d events, %d fallbacks", err, len(evs), dec.fallback)
	}
}

// FuzzEventCodec is the codec's differential test against encoding/json,
// in both directions. Arbitrary bytes: decode and decodeArray agree with
// json.Unmarshal on error-ness, error text and value. An Event built from
// the fuzzed fields: AppendEvent's bytes are json.Marshal's, they decode
// back to the same value either way, and the part payload around them
// slices its bodies where the elements are.
func FuzzEventCodec(f *testing.F) {
	for _, s := range append(codecRefusals, codecTaken...) {
		f.Add([]byte(s), int64(0), int64(0), false)
	}
	for i, e := range codecSamples() {
		b, err := json.Marshal(&e)
		if err != nil {
			continue // a time no RFC 3339 string holds; the fuzzed fields reach those
		}
		f.Add(b, int64(i), int64(i)*1e9+int64(i), i%2 == 0)
		f.Add(append(append([]byte{'['}, b...), ']'), int64(-i), int64(i)<<40, i%2 == 1)
	}
	f.Fuzz(func(t *testing.T, data []byte, n, nanos int64, record bool) {
		checkDecodeAgainstJSON(t, data)

		// The same bytes as field values: cut in up to eight strings.
		var s [8]string
		for i, rest := 0, string(data); i < len(s) && len(rest) > 0; i++ {
			cut := len(rest)
			if i < len(s)-1 {
				cut = (len(rest) + 1) / 2
			}
			s[i], rest = rest[:cut], rest[cut:]
		}
		at := time.Unix(n, nanos).UTC()
		if n%5 == 0 {
			at = at.In(time.FixedZone("", int(n%(30*3600))))
		}
		e := Event{Cert: &cert.Event{Type: cert.EventType(n), Time: at, User: s[0], PC: s[1], Activity: s[2],
			FileID: s[3], Direction: s[4], Domain: s[5], FileType: s[6], Recipient: s[7]}}
		if record {
			e = Event{Record: &logstore.Record{Time: at, User: s[0], Host: s[1], Channel: s[2],
				EventID: int(n), Action: s[3], Object: s[4], Status: s[5]}}
		}
		want, werr := json.Marshal(&e)
		got, gerr := AppendEvent(nil, e)
		if (werr != nil) != (gerr != nil) {
			t.Fatalf("AppendEvent(%s): error %v, json.Marshal's is %v", describe(e), gerr, werr)
		}
		if werr != nil {
			return
		}
		if !bytes.Equal(got, want) {
			t.Fatalf("AppendEvent(%s):\n got %s\nwant %s", describe(e), got, want)
		}
		checkDecodeAgainstJSON(t, got)
		payload, bodies, err := encodePartPayload(uint64(n), 1, []Event{e, e})
		if err != nil || len(bodies) != 2 || !bytes.Equal(bodies[0], want) || !bytes.Equal(bodies[1], want) {
			t.Fatalf("part payload of two of %s: err %v, bodies %q", describe(e), err, bodies)
		}
		checkDecodeAgainstJSON(t, payload[partHeaderSize:])
	})
}

// benchBody returns n canonical events of one generated day and their
// NDJSON body and JSON array.
func benchBody(tb testing.TB, n int) (events []Event, ndjson, array []byte) {
	tb.Helper()
	cfg := cert.SmallConfig(40)
	gen, err := cert.New(cfg)
	if err != nil {
		tb.Fatal(err)
	}
	d, _ := gen.Span()
	for _, u := range gen.Users() {
		for _, ev := range gen.UserDay(u, d+3) {
			ev := ev
			events = append(events, Event{Cert: &ev})
		}
	}
	if len(events) < n {
		tb.Fatalf("generated %d events, want %d", len(events), n)
	}
	events = events[:n]
	for i := range events {
		line, err := json.Marshal(&events[i])
		if err != nil {
			tb.Fatal(err)
		}
		ndjson = append(append(ndjson, line...), '\n')
	}
	array, err = json.Marshal(events)
	if err != nil {
		tb.Fatal(err)
	}
	return events, ndjson, array
}

// BenchmarkEventCodec is the committed gauge of the wire codec against
// encoding/json on the same 500 generated events: decode is one NDJSON
// line into an Event, decode_array a WAL part's array, encode a WAL part
// payload (ns/op and allocs/op are per event, per event and per part).
func BenchmarkEventCodec(b *testing.B) {
	events, ndjson, array := benchBody(b, 500)
	lines := bytes.Split(bytes.TrimSuffix(ndjson, []byte{'\n'}), []byte{'\n'})
	b.Run("decode/codec", func(b *testing.B) {
		b.ReportAllocs()
		dec := eventDecoder{expect: b.N}
		for i := 0; i < b.N; i++ {
			var e Event
			if err := dec.decode(lines[i%len(lines)], &e); err != nil || dec.fallback != 0 {
				b.Fatal(err, dec.fallback)
			}
		}
	})
	b.Run("decode/encoding-json", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			var e Event
			if err := json.Unmarshal(lines[i%len(lines)], &e); err != nil {
				b.Fatal(err)
			}
		}
	})
	perEvent := func(b *testing.B) {
		b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*len(events)), "ns/event")
	}
	b.Run("decode_array/codec", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			var dec eventDecoder
			if _, err := dec.decodeArray(array); err != nil || dec.fallback != 0 {
				b.Fatal(err, dec.fallback)
			}
		}
		perEvent(b)
	})
	b.Run("decode_array/encoding-json", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			var evs []Event
			if err := json.Unmarshal(array, &evs); err != nil {
				b.Fatal(err)
			}
		}
		perEvent(b)
	})
	b.Run("encode/codec", func(b *testing.B) {
		b.ReportAllocs()
		var pe partEncoder
		for i := 0; i < b.N; i++ {
			if _, _, err := pe.encode(1, 1, events); err != nil {
				b.Fatal(err)
			}
		}
		perEvent(b)
	})
	b.Run("encode/encoding-json", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			// The part encoder as it was: marshal each element, copy it in.
			buf := append(make([]byte, partHeaderSize, partHeaderSize+2), '[')
			for j := range events {
				if j > 0 {
					buf = append(buf, ',')
				}
				enc, err := json.Marshal(&events[j])
				if err != nil {
					b.Fatal(err)
				}
				buf = append(buf, enc...)
			}
			_ = append(buf, ']')
		}
		perEvent(b)
	})
}

// BenchmarkHandleIngest posts one 500-event body per iteration through
// the real handler (httptest, no network): body read, decode, vet,
// submit into a two-shard in-memory server, ack. Every 50 bodies, off the
// clock, the day is closed and the body moved to the next one, so the
// shards' buffers stay a day deep however long the benchmark runs.
func BenchmarkHandleIngest(b *testing.B) {
	events, ndjson, _ := benchBody(b, 500)
	seen := map[string]bool{}
	var users []string
	for _, e := range events {
		if !seen[e.Cert.User] {
			seen[e.Cert.User] = true
			users = append(users, e.Cert.User)
		}
	}
	srv, err := New(Config{Users: users, Start: 0, Shards: 2, Deviation: testDevCfg()})
	if err != nil {
		b.Fatal(err)
	}
	ctx := context.Background()
	defer srv.Shutdown(ctx)
	h := srv.Handler()
	b.Run("body=500", func(b *testing.B) {
		b.ReportAllocs()
		b.SetBytes(int64(len(ndjson)))
		for i := 0; i < b.N; i++ {
			if i > 0 && i%50 == 0 {
				b.StopTimer()
				if err := srv.CloseDay(ctx, events[0].Day()); err != nil {
					b.Fatal(err)
				}
				ndjson = ndjson[:0]
				for j := range events {
					events[j].Cert.Time = events[j].Cert.Time.Add(24 * time.Hour)
					if ndjson, err = AppendEvent(ndjson, events[j]); err != nil {
						b.Fatal(err)
					}
					ndjson = append(ndjson, '\n')
				}
				b.StartTimer()
			}
			req := httptest.NewRequest(http.MethodPost, "/v1/ingest", bytes.NewReader(ndjson))
			rec := httptest.NewRecorder()
			h.ServeHTTP(rec, req)
			if rec.Code != http.StatusOK {
				b.Fatal(rec.Code, rec.Body.String())
			}
		}
		b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*len(events)), "ns/event")
	})
}
