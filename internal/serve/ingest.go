package serve

import (
	"fmt"
	"io"
	"time"

	"acobe/internal/cert"
	"acobe/internal/enterprise"
	"acobe/internal/features"
	"acobe/internal/logstore"
)

// Event is the daemon's wire format: exactly one of Cert or Record is set,
// matching the repository's two log families (CERT-style user activity
// events and enterprise audit-log records). The JSON encoding is lossless,
// so a batch can round-trip through the HTTP ingest endpoint and reproduce
// the offline pipeline bit for bit.
type Event struct {
	Cert   *cert.Event      `json:"cert,omitempty"`
	Record *logstore.Record `json:"record,omitempty"`
}

// Time returns the event's timestamp, or the zero time when neither
// payload is set.
func (e Event) Time() time.Time {
	switch {
	case e.Cert != nil:
		return e.Cert.Time
	case e.Record != nil:
		return e.Record.Time
	default:
		return time.Time{}
	}
}

// Day returns the calendar day the event belongs to.
func (e Event) Day() cert.Day { return cert.DayOf(e.Time()) }

// Valid reports whether exactly one payload is set.
func (e Event) Valid() bool { return (e.Cert != nil) != (e.Record != nil) }

// An Ingestor turns one closed day's events into measurement-table rows.
// Implementations own a growing features.Table: the serving loop calls
// EnsureDay on it and then ConsumeDay once per day, in strictly
// chronological order (extractors carry first-seen state across days).
type Ingestor interface {
	// Table returns the live measurement table the ingestor fills.
	Table() *features.Table
	// ConsumeDay processes every event of one day. Events outside the
	// day or with the wrong payload type are rejected.
	ConsumeDay(d cert.Day, events []Event) error
}

// EventChecker is an optional Ingestor refinement: CheckEvent vets a
// single event's payload type up front, so Submit can reject a batch the
// ingestor could never consume before it is queued — and, with
// persistence, before it is WAL-logged. An unconsumable batch in a
// durable log would otherwise fail every replay at day-close, making the
// data directory unrecoverable. Ingestors without it accept any valid
// Event at submit time and rely on ConsumeDay's own checks.
type EventChecker interface {
	// CheckEvent returns an error when e's payload type cannot be
	// consumed by this ingestor.
	CheckEvent(e Event) error
}

// StatefulIngestor is an Ingestor whose cross-day state (table plus
// first-seen trackers) can be serialized. The persistence layer requires
// it: snapshots capture the ingestor so recovery resumes extraction
// mid-stream with identical results. Both built-in ingestors implement it.
type StatefulIngestor interface {
	Ingestor
	// SaveState writes the ingestor's complete state deterministically.
	SaveState(w io.Writer) error
	// LoadState restores state written by SaveState into a freshly
	// constructed ingestor of the same shape.
	LoadState(r io.Reader) error
}

// CERTIngestor adapts the CERT feature extractor (device/file/HTTP
// fine-grained features) to the serving loop. CERT extraction is
// within-day order-independent — a (feature, object) pair first seen on
// day d counts as new for all of day d — so arrival order inside a batch
// does not matter.
type CERTIngestor struct {
	x *features.Extractor
}

// NewCERTIngestor builds an ingestor over users whose table starts at
// start and grows forward.
func NewCERTIngestor(users []string, start cert.Day) (*CERTIngestor, error) {
	x, err := features.NewExtractor(users, start, start)
	if err != nil {
		return nil, fmt.Errorf("serve: cert ingestor: %w", err)
	}
	return &CERTIngestor{x: x}, nil
}

// Table implements Ingestor.
func (c *CERTIngestor) Table() *features.Table { return c.x.Table() }

// SaveState implements StatefulIngestor.
func (c *CERTIngestor) SaveState(w io.Writer) error { return c.x.SaveState(w) }

// LoadState implements StatefulIngestor.
func (c *CERTIngestor) LoadState(r io.Reader) error { return c.x.LoadState(r) }

// CheckEvent implements EventChecker: only CERT payloads are consumable.
func (c *CERTIngestor) CheckEvent(e Event) error {
	if e.Cert == nil {
		return fmt.Errorf("%w: cert ingestor accepts only CERT events", ErrPayloadRejected)
	}
	return nil
}

// ConsumeDay implements Ingestor.
func (c *CERTIngestor) ConsumeDay(d cert.Day, events []Event) error {
	evs := make([]cert.Event, 0, len(events))
	for _, e := range events {
		if e.Cert == nil {
			return fmt.Errorf("serve: cert ingestor got non-CERT event on day %v", d)
		}
		evs = append(evs, *e.Cert)
	}
	return c.x.Consume(d, evs)
}

// EnterpriseIngestor adapts the enterprise audit-log extractor. Enterprise
// extraction attributes first-seen features to the frame of the first
// occurrence, so each day's records are sorted into canonical time order
// before extraction — ingest batches may arrive interleaved.
type EnterpriseIngestor struct {
	x *enterprise.Extractor
}

// NewEnterpriseIngestor builds an ingestor over users whose table starts
// at start and grows forward.
func NewEnterpriseIngestor(users []string, start cert.Day) (*EnterpriseIngestor, error) {
	x, err := enterprise.NewExtractor(users, start, start)
	if err != nil {
		return nil, fmt.Errorf("serve: enterprise ingestor: %w", err)
	}
	return &EnterpriseIngestor{x: x}, nil
}

// Table implements Ingestor.
func (e *EnterpriseIngestor) Table() *features.Table { return e.x.Table() }

// SaveState implements StatefulIngestor.
func (e *EnterpriseIngestor) SaveState(w io.Writer) error { return e.x.SaveState(w) }

// LoadState implements StatefulIngestor.
func (e *EnterpriseIngestor) LoadState(r io.Reader) error { return e.x.LoadState(r) }

// CheckEvent implements EventChecker: only enterprise records are
// consumable.
func (e *EnterpriseIngestor) CheckEvent(ev Event) error {
	if ev.Record == nil {
		return fmt.Errorf("%w: enterprise ingestor accepts only record events", ErrPayloadRejected)
	}
	return nil
}

// ConsumeDay implements Ingestor.
func (e *EnterpriseIngestor) ConsumeDay(d cert.Day, events []Event) error {
	recs := make([]logstore.Record, 0, len(events))
	for _, ev := range events {
		if ev.Record == nil {
			return fmt.Errorf("serve: enterprise ingestor got non-record event on day %v", d)
		}
		recs = append(recs, *ev.Record)
	}
	logstore.SortRecords(recs)
	return e.x.Consume(d, recs)
}
