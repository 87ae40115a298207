package serve

import (
	"context"
	"errors"
	"fmt"
)

// eventUser returns the user ID an event is attributed to, for shard
// routing. Valid events always carry one.
func eventUser(e Event) string {
	switch {
	case e.Cert != nil:
		return e.Cert.User
	case e.Record != nil:
		return e.Record.User
	}
	return ""
}

// Submit hands a batch of events to the shard goroutines. It blocks while
// a bounded queue is full (backpressure) until ctx is canceled or
// shutdown begins. Events for already-closed days are counted as late and
// dropped at drain time. With persistence enabled Submit additionally
// blocks until the batch is appended to the WAL(s): a nil return means
// the whole batch survives a restart. One part is logged per involved
// shard and recovery discards batches with missing parts, so a batch is
// durable all-or-nothing. A ctx error leaves the batch's durability and
// whether it was applied unknown, exactly like a crash mid-call.
func (s *Server) Submit(ctx context.Context, events []Event) error {
	_, err := s.submit(ctx, events)
	return err
}

// testHookPartSent, when non-nil, runs after each part of a fan-out lands
// in its shard queue — still inside the fan-out's snapMu read section.
// Tests use it to hold a fan-out open between two parts and prove a
// snapshot round cannot cut through the middle of a batch.
var testHookPartSent func(shard int)

// submit vets one batch — the one place that decides a batch is the
// client's mistake, for Submit and SubmitProvable alike — splits it by
// shard and fans the slices out to the shard queues, then (with
// persistence) waits for every involved shard's WAL ack. The enqueue loop
// runs under snapMu's read side so a snapshot round can never cut through
// the middle of a batch's fan-out. It returns the batch ID the log
// assigned (0 for a batch routed to no shard, or with an error).
func (s *Server) submit(ctx context.Context, events []Event) (uint64, error) {
	for _, e := range events {
		if !e.Valid() {
			return 0, errors.New("serve: event must carry exactly one of cert/record payloads")
		}
		if err := s.checkEvent(e); err != nil {
			return 0, err
		}
	}
	return s.dispatch(ctx, events)
}

// dispatch is submit past the vetting, for a batch whose every event is
// already known to be Valid and to pass checkEvent (the HTTP handler vets
// as it decodes).
func (s *Server) dispatch(ctx context.Context, events []Event) (uint64, error) {
	start := s.obs.Clock()
	split := make([][]Event, len(s.shards))
	parts := uint32(0)
	last, k := "", 0
	for i, e := range events {
		// Shippers batch by user: hash a user once per run of its events.
		if u := eventUser(e); i == 0 || u != last {
			last, k = u, s.router.shardOf(u)
		}
		if len(split[k]) == 0 {
			parts++
		}
		split[k] = append(split[k], e)
	}
	if s.persistent() && parts > 1 {
		// A batch that fans out is measured whole, on the caller's
		// goroutine: every per-shard slice encodes smaller than the full
		// batch, so only this check keeps an oversized batch from being
		// logged by some shards and rejected by others. A one-part batch
		// needs no second encoding — its owning shard's own cap check
		// rejects it whole before applying or logging anything.
		payload, _, err := encodePartPayload(0, parts, events)
		if err != nil {
			return 0, err
		}
		if len(payload) > maxWALRecord {
			return 0, fmt.Errorf("%w (%d bytes, cap %d)", ErrBatchTooLarge, len(payload), maxWALRecord)
		}
	}

	if err := s.persistErr(); err != nil {
		return 0, err
	}
	var dones []chan error
	batchID := uint64(0)
	s.snapMu.RLock()
	s.qmu.RLock()
	if s.closed {
		s.qmu.RUnlock()
		s.snapMu.RUnlock()
		return 0, ErrShuttingDown
	}
	if parts > 0 {
		enq := s.obs.Clock()
		batchID = s.nextBatch.Add(1)
		for k, evs := range split {
			if len(evs) == 0 {
				continue
			}
			env := envelope{events: evs, batchID: batchID, parts: parts}
			if s.persistent() {
				env.done = make(chan error, 1)
			}
			select {
			case s.shards[k].queue <- env:
				s.shards[k].stats.NoteQueueDepth(len(s.shards[k].queue))
				if env.done != nil {
					dones = append(dones, env.done)
				}
				if testHookPartSent != nil {
					testHookPartSent(k)
				}
			case <-ctx.Done():
				s.qmu.RUnlock()
				s.snapMu.RUnlock()
				return 0, ctx.Err()
			}
		}
		s.obs.ObserveEnqueue(enq)
	}
	s.qmu.RUnlock()
	s.snapMu.RUnlock()

	var firstErr error
	for _, done := range dones {
		select {
		case err := <-done:
			if err != nil && firstErr == nil {
				firstErr = err
			}
		case <-ctx.Done():
			return 0, ctx.Err()
		}
	}
	if firstErr != nil {
		return 0, firstErr
	}
	s.obs.ObserveSubmit(start, len(events))
	return batchID, nil
}

// checkEvent vets an event's payload type against the ingestor. submit
// calls it so a batch the ingestor cannot consume is rejected before it
// is queued or WAL-logged: a durable log holding an unconsumable batch
// would fail every replay at day-close. Shard ingestors are immutable
// once the drain goroutines run and all share one type, so probing any
// one of them is safe from any goroutine.
func (s *Server) checkEvent(e Event) error {
	if c, ok := s.checker.(EventChecker); ok {
		return c.CheckEvent(e)
	}
	return nil
}

// shardDrain is one shard's consumer goroutine. It owns the shard's
// extractor, windows, and WAL appender; closes and snapshots
// arrive as coordinator-broadcast barriers.
func (s *Server) shardDrain(sh *shard) {
	defer s.drainWG.Done()
	for env := range sh.queue {
		switch {
		case env.isClose:
			env.done <- s.shardClose(sh, env)
		case env.isSnap:
			env.done <- s.shardSnapshot(sh)
		case env.isReceipt:
			env.done <- s.shardReceipt(sh, env.rcpt)
		default:
			err := s.shardEvents(sh, env)
			if env.done != nil {
				env.done <- err
			} else if err != nil && sh.applyErr == nil {
				sh.applyErr = err
			}
		}
	}
	if sh.wal != nil {
		if err := sh.wal.close(); err != nil {
			_ = s.failPersist(err)
		}
	}
}

// shardEvents applies one batch slice, WAL-first when persistence is on.
// Late events are filtered before logging so that replaying the WAL
// re-applies exactly the accepted events, independent of the
// closed-through day at replay time.
func (s *Server) shardEvents(sh *shard, env envelope) error {
	if err := s.persistErr(); err != nil {
		return err
	}
	start := s.obs.Clock()
	fresh, late := sh.fresh(env.events)
	if sh.wal != nil {
		// The part is logged even when the late filter emptied it: the
		// batch is durable only when all its parts are on disk, and every
		// involved shard must be able to account for its part.
		// (bodies, the per-event encodings, are an audited batch's Merkle
		// leaves.)
		payload, bodies, err := sh.wal.enc.encode(env.batchID, env.parts, fresh)
		if err != nil {
			return err // a batch that cannot encode is the batch's problem
		}
		if len(payload) > maxWALRecord {
			return fmt.Errorf("%w (%d bytes, cap %d)", ErrBatchTooLarge, len(payload), maxWALRecord)
		}
		if err := sh.wal.appendEvents(payload, bodies); err != nil {
			return s.failPersist(err)
		}
		if s.auditOn() {
			s.recordBatchAudit(sh, env.batchID, env.parts)
		}
	}
	err := sh.apply(fresh, late)
	if err != nil && sh.wal != nil {
		err = s.failPersist(err) // logged whole, applied in part: fail-stop as a failed close does
	}
	sh.stats.ObserveApply(start)
	return err
}

// fresh is the late filter: it keeps, in place, the events of days the
// shard has not closed, and counts the rest. The slice is the server's own
// — Submit's per-shard split, or a replay's decode.
func (sh *shard) fresh(events []Event) (kept []Event, late int) {
	kept = events[:0]
	for _, e := range events {
		if e.Day() > sh.closedThrough {
			kept = append(kept, e)
		}
	}
	return kept, len(events) - len(kept)
}

// apply is the one door into a shard's extractor, for live batches and
// replayed WAL parts alike, past the late filter (which dropped `late`
// events): the ingestor folds the events into their days' open state and
// the counters move. Only the shard goroutine (or recovery before it)
// calls it.
func (sh *shard) apply(fresh []Event, late int) error {
	unknown, err := len(fresh), error(nil)
	if sh.ing != nil {
		unknown, err = sh.ing.Apply(fresh)
	}
	sh.ingested.Add(int64(len(fresh) - unknown))
	sh.unknown.Add(int64(unknown))
	sh.late.Add(int64(late))
	return err
}
