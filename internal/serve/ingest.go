package serve

import (
	"errors"
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

// An Ingestor turns events into measurement-table rows. Events are folded
// in as they arrive (Apply) and a day's row is written when the day closes
// (CloseDay): the raw events are never kept. Implementations own a growing
// features.Table: the serving loop calls EnsureDay on it and then CloseDay
// once per day, in strictly chronological order (extractors carry
// first-seen state across days).
type Ingestor interface {
	// Table returns the live measurement table the ingestor fills.
	Table() *features.Table
	// Apply folds events of not-yet-closed days into those days' open
	// state, in any order and with days interleaved. It returns how many
	// events named a user outside the table; those are skipped. A wrong
	// payload type is an error, which may leave the batch partly applied.
	Apply(events []Event) (unknown int, err error)
	// CloseDay writes day d's measurements (zeros for a day no event
	// named) and returns how many events the day held.
	CloseDay(d cert.Day) (events int, err error)
}

// EventChecker is an optional Ingestor refinement: CheckEvent vets a
// single event's payload type up front, so Submit can reject a batch the
// ingestor could never apply before it is queued — and, with persistence,
// before it is WAL-logged. An unappliable batch in a durable log would
// otherwise fail every replay, making the data directory unrecoverable.
// Ingestors without it accept any valid Event at submit time and rely on
// Apply's own checks.
type EventChecker interface {
	// CheckEvent returns an error when e's payload type cannot be
	// consumed by this ingestor.
	CheckEvent(e Event) error
}

// StatefulIngestor is an Ingestor whose state can be serialized: the
// closed days' (table plus first-seen trackers) as one stream, and each
// open day's on its own. The persistence layer requires it: snapshots
// capture the ingestor so recovery resumes extraction mid-stream with
// identical results. Both built-in ingestors implement it.
type StatefulIngestor interface {
	Ingestor
	// SaveState writes the closed days' state deterministically.
	SaveState(w io.Writer) error
	// LoadState restores state written by SaveState into a freshly
	// constructed ingestor of the same shape.
	LoadState(r io.Reader) error
	// OpenDays returns the number of events applied to each day not yet
	// closed (none for a day every event of which named an unknown user).
	OpenDays() map[cert.Day]int
	// SaveOpenDay writes open day d's state deterministically.
	SaveOpenDay(w io.Writer, d cert.Day) error
	// LoadOpenDay restores one SaveOpenDay blob, after LoadState.
	LoadOpenDay(blob []byte, d cert.Day) error
}

// CERTIngestor adapts the CERT feature extractor (device/file/HTTP
// fine-grained features) to the serving loop; the embedded extractor
// supplies Table, CloseDay and the state methods.
type CERTIngestor struct {
	*features.Extractor
}

// NewCERTIngestor builds an ingestor over users whose table starts at
// start and grows forward.
func NewCERTIngestor(users []string, start cert.Day) (*CERTIngestor, error) {
	x, err := features.NewExtractor(users, start, start)
	if err != nil {
		return nil, fmt.Errorf("serve: cert ingestor: %w", err)
	}
	return &CERTIngestor{x}, nil
}

// CheckEvent implements EventChecker: only CERT payloads are consumable.
func (c *CERTIngestor) CheckEvent(e Event) error {
	if e.Cert == nil {
		return fmt.Errorf("%w: cert ingestor accepts only CERT events", ErrPayloadRejected)
	}
	return nil
}

// Apply implements Ingestor.
func (c *CERTIngestor) Apply(events []Event) (unknown int, err error) {
	for _, e := range events {
		if e.Cert == nil {
			return unknown, errors.New("serve: cert ingestor got a non-CERT event")
		}
		known, err := c.Extractor.Apply(e.Cert)
		if err != nil {
			return unknown, err
		}
		if !known {
			unknown++
		}
	}
	return unknown, nil
}

// ConsumeDay applies one whole day's events and closes the day: the batch
// form of Apply + CloseDay, for callers that hold a day at a time (and
// have called EnsureDay).
func (c *CERTIngestor) ConsumeDay(d cert.Day, events []Event) error {
	if _, err := c.Apply(events); err != nil {
		return err
	}
	_, err := c.CloseDay(d)
	return err
}

// EnterpriseIngestor adapts the enterprise audit-log extractor.
type EnterpriseIngestor struct {
	*enterprise.Extractor
}

// NewEnterpriseIngestor builds an ingestor over users whose table starts
// at start and grows forward.
func NewEnterpriseIngestor(users []string, start cert.Day) (*EnterpriseIngestor, error) {
	x, err := enterprise.NewExtractor(users, start, start)
	if err != nil {
		return nil, fmt.Errorf("serve: enterprise ingestor: %w", err)
	}
	return &EnterpriseIngestor{x}, nil
}

// CheckEvent implements EventChecker: only enterprise records are
// consumable.
func (e *EnterpriseIngestor) CheckEvent(ev Event) error {
	if ev.Record == nil {
		return fmt.Errorf("%w: enterprise ingestor accepts only record events", ErrPayloadRejected)
	}
	return nil
}

// Apply implements Ingestor.
func (e *EnterpriseIngestor) Apply(events []Event) (unknown int, err error) {
	for _, ev := range events {
		if ev.Record == nil {
			return unknown, errors.New("serve: enterprise ingestor got a non-record event")
		}
		known, err := e.Extractor.Apply(ev.Record)
		if err != nil {
			return unknown, err
		}
		if !known {
			unknown++
		}
	}
	return unknown, nil
}
