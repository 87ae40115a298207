package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"acobe/internal/cert"
	"acobe/internal/features"
	"acobe/pkg/acobe/daemon"
)

// generating counts goroutines currently generating or encoding inputs.
// Every timed window asserts it is zero when it opens and when it closes:
// inputs are built entirely outside the timed windows.
var generating atomic.Int32

// dayInput is one dataset day, ready to send.
type dayInput struct {
	day     int
	n       int              // events in the day
	events  []cert.Event     // the day's events, population order (dropped once encoded and extracted)
	batches [][]daemon.Event // in-process batches over events (nil on HTTP-only days)
	bodies  [][]byte         // NDJSON bodies (nil on in-process days)
	counts  []int            // events per body
}

// inputs is everything a run sends, plus the offline oracle's measurement
// table, which is extracted while the events are at hand.
type inputs struct {
	ids        []string
	groups     []string
	membership []int
	days       []*dayInput // indexed by day; nil below FirstDay

	events    int
	genS      float64 // cert generator time
	encodeS   float64 // NDJSON encode time
	bodyBytes int64
	bodyEvs   int

	oracle   *features.Extractor
	extractS float64 // oracle extraction time, excluded from set-up
}

// buildInputs generates days FirstDay..LastDay from seed on up to two
// goroutines (distinct users are independent in the generator), encodes
// the days an HTTP workload sends, and feeds every day to the oracle's
// extractor. The same seed always yields the same inputs.
func buildInputs(sp spec, seed uint64, tr *tracer) (*inputs, error) {
	generating.Add(1)
	defer generating.Add(-1)

	perDept := (sp.Users + len(cert.DefaultDepartments) - 1) / len(cert.DefaultDepartments)
	gen, err := cert.New(cert.Config{
		Seed:         seed,
		Departments:  append([]string(nil), cert.DefaultDepartments...),
		UsersPerDept: perDept,
		Start:        0,
		End:          cert.Day(sp.LastDay + 1),
	})
	if err != nil {
		return nil, err
	}
	pop := gen.Users()
	in := &inputs{groups: gen.Departments(), days: make([]*dayInput, sp.LastDay+1)}
	deptIndex := make(map[string]int)
	for i, d := range in.groups {
		deptIndex[d] = i
	}
	for _, u := range pop {
		in.ids = append(in.ids, u.ID)
		in.membership = append(in.membership, deptIndex[u.Department])
	}
	if in.oracle, err = features.NewExtractor(in.ids, cert.Day(sp.FirstDay), cert.Day(sp.LastDay)); err != nil {
		return nil, err
	}

	half := len(pop) / 2
	for d := sp.FirstDay; d <= sp.LastDay; d++ {
		di := &dayInput{day: d}
		t0 := time.Now()
		var parts [2][]cert.Event
		var wg sync.WaitGroup
		for p, users := range [][]cert.User{pop[:half], pop[half:]} {
			wg.Add(1)
			go func(p int, users []cert.User) {
				defer wg.Done()
				for _, u := range users {
					parts[p] = append(parts[p], gen.UserDay(u, cert.Day(d))...)
				}
			}(p, users)
		}
		wg.Wait()
		di.events = append(parts[0], parts[1]...)
		di.n = len(di.events)
		in.genS += time.Since(t0).Seconds()
		in.events += len(di.events)

		if sp.HTTP && d >= sp.TimedFrom {
			t0 = time.Now()
			if err := di.encode(sp.BatchEvents); err != nil {
				return nil, err
			}
			in.encodeS += time.Since(t0).Seconds()
			for i, b := range di.bodies {
				in.bodyBytes += int64(len(b))
				in.bodyEvs += di.counts[i]
			}
		} else {
			all := make([]daemon.Event, len(di.events))
			for i := range di.events {
				all[i] = daemon.Event{Cert: &di.events[i]}
			}
			for lo := 0; lo < len(all); lo += sp.BatchEvents {
				di.batches = append(di.batches, all[lo:min(lo+sp.BatchEvents, len(all))])
			}
		}

		id := tr.begin("offline.extract", -1, int64(d))
		t0 = time.Now()
		if err := in.oracle.Consume(cert.Day(d), di.events); err != nil {
			return nil, fmt.Errorf("oracle extract day %d: %w", d, err)
		}
		in.extractS += time.Since(t0).Seconds()
		tr.end(id)
		if di.bodies != nil {
			di.events = nil
		}
		in.days[d] = di
	}
	return in, nil
}

// encode renders the day's events as NDJSON bodies of up to batch events,
// two bodies at a time.
func (d *dayInput) encode(batch int) error {
	n := (len(d.events) + batch - 1) / batch
	d.bodies = make([][]byte, n)
	d.counts = make([]int, n)
	errs := make([]error, 2)
	var wg sync.WaitGroup
	for w := 0; w < 2; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for b := w; b < n; b += 2 {
				lo, hi := b*batch, min((b+1)*batch, len(d.events))
				var buf bytes.Buffer
				enc := json.NewEncoder(&buf)
				for i := lo; i < hi; i++ {
					if err := enc.Encode(daemon.Event{Cert: &d.events[i]}); err != nil {
						errs[w] = err
						return
					}
				}
				d.bodies[b], d.counts[b] = buf.Bytes(), hi-lo
			}
		}(w)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}
