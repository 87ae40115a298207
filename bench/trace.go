package main

import (
	"bufio"
	"encoding/json"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"time"
)

// span is one timed call into a layer, recorded by the harness around the
// call (in-program spans are a later issue). Key carries the identifier
// spans of one request share: the batch index, the day, or the rank
// number, depending on the span name.
type span struct {
	ID     int
	Parent int // -1 for a root
	Name   string
	Key    int64
	Start  time.Duration // since the tracer was created
	End    time.Duration
}

func (s span) seconds() float64 { return (s.End - s.Start).Seconds() }

// tracer keeps spans in memory until the run ends. A nil *tracer records
// nothing, which is what every untraced cycle runs with.
type tracer struct {
	mu    sync.Mutex
	t0    time.Time
	spans []span
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

// begin opens a span and returns its id (-1 on a nil tracer).
func (t *tracer) begin(name string, parent int, key int64) int {
	if t == nil {
		return -1
	}
	now := time.Since(t.t0)
	t.mu.Lock()
	id := len(t.spans)
	t.spans = append(t.spans, span{ID: id, Parent: parent, Name: name, Key: key, Start: now, End: -1})
	t.mu.Unlock()
	return id
}

// end closes the span begin returned.
func (t *tracer) end(id int) {
	if t == nil || id < 0 {
		return
	}
	now := time.Since(t.t0)
	t.mu.Lock()
	t.spans[id].End = now
	t.mu.Unlock()
}

// duration is the length in seconds of the closed span id. Other
// goroutines may be recording spans meanwhile.
func (t *tracer) duration(id int) float64 {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.spans[id].seconds()
}

// seconds lists the durations of every closed span called name.
func (t *tracer) seconds(name string) []float64 {
	if t == nil {
		return nil
	}
	var out []float64
	for _, s := range t.spans {
		if s.Name == name && s.End >= 0 {
			out = append(out, s.seconds())
		}
	}
	return out
}

// selfTimes returns each span's self time: its duration minus the part of
// that interval its child spans cover. Children running concurrently
// (two clients inside one day window) are unioned, not summed.
func (t *tracer) selfTimes() []time.Duration {
	children := make(map[int][]span)
	for _, s := range t.spans {
		if s.Parent >= 0 && s.End >= 0 {
			children[s.Parent] = append(children[s.Parent], s)
		}
	}
	self := make([]time.Duration, len(t.spans))
	for i, s := range t.spans {
		if s.End < 0 {
			continue
		}
		kids := children[s.ID]
		sort.Slice(kids, func(a, b int) bool { return kids[a].Start < kids[b].Start })
		covered, edge := time.Duration(0), s.Start
		for _, k := range kids {
			lo, hi := max(k.Start, edge), min(k.End, s.End)
			if hi > lo {
				covered += hi - lo
				edge = hi
			}
		}
		self[i] = (s.End - s.Start) - covered
	}
	return self
}

// spanLine is the JSONL form of one span.
type spanLine struct {
	ID      int     `json:"id"`
	Parent  int     `json:"parent"`
	Name    string  `json:"name"`
	Key     int64   `json:"key"`
	StartUS float64 `json:"start_us"`
	EndUS   float64 `json:"end_us"`
	SelfUS  float64 `json:"self_us"`
}

// write dumps the spans, one JSON object per line, creating the directory.
func (t *tracer) write(path string) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	self := t.selfTimes()
	us := func(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e3 }
	for i, s := range t.spans {
		if s.End < 0 {
			continue
		}
		if err := enc.Encode(spanLine{s.ID, s.Parent, s.Name, s.Key, us(s.Start), us(s.End), us(self[i])}); err != nil {
			f.Close()
			return err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
