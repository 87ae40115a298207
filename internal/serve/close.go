package serve

import (
	"context"
	"log/slog"
	"sync"
	"time"

	"acobe/internal/cert"
	"acobe/internal/features"
	"acobe/internal/nn"
	"acobe/internal/obs"
)

// CloseDay declares that every day up to and including d is complete: each
// shard writes what its extractor accumulated for those days into its
// measurement table and advances its deviation windows, and the new days
// are published. It blocks until the publish finished (or the close failed).
func (s *Server) CloseDay(ctx context.Context, d cert.Day) error {
	start := time.Now()
	done := make(chan error, 1)
	if err := s.send(ctx, s.queue, envelope{closeThrough: d, isClose: true, done: done}); err != nil {
		return err
	}
	select {
	case err := <-done:
		if err == nil {
			s.obs.ObserveClose(start)
		}
		return err
	case <-ctx.Done():
		return ctx.Err()
	}
}

// coordinate serializes day-closes: one barrier at a time, broadcast to
// every shard, published after all of them ack. When its queue closes
// (Shutdown), it closes the shard queues — it is their only other sender,
// so the close is safe.
func (s *Server) coordinate() {
	defer s.drainWG.Done()
	for env := range s.queue {
		env.done <- s.coordClose(env.closeThrough)
	}
	for _, sh := range s.shards {
		close(sh.queue)
	}
}

// coordClose runs one close barrier across every shard, then fills the
// group state for the closed days, publishes them, and snapshots on
// cadence.
func (s *Server) coordClose(to cert.Day) error {
	if err := s.persistErr(); err != nil {
		return err
	}
	from := s.pub.Load().closedThrough
	if to <= from {
		return nil
	}
	// Room for the new days is made here, before the barrier: between
	// barriers no shard touches the shared field, and inside one the
	// shards only write their own rows of days nothing published reaches.
	s.sigma.Reserve(to)
	acks := make([]chan error, len(s.shards))
	sent := time.Now()
	for i, sh := range s.shards {
		acks[i] = make(chan error, 1)
		sh.queue <- envelope{closeThrough: to, isClose: true, at: sent, done: acks[i]}
	}
	var firstErr error
	var phases obs.ClosePhases
	for i, ack := range acks {
		if err := <-ack; err != nil && firstErr == nil {
			firstErr = err
		}
		phases.Merge(s.shards[i].phases)
	}
	if firstErr != nil {
		return firstErr
	}
	if err := s.publishDays(from+1, to); err != nil {
		if s.persistent() {
			// Every shard durably logged the barrier; a failure past it
			// means memory diverged from what replay would rebuild, so
			// fail-stop.
			return s.failPersist(err)
		}
		return err
	}
	slog.Info("serve: day closed", "day", int64(to), "events", phases.Events,
		"barrier_s", phases.Barrier.Seconds(), "finalize_s", phases.Finalize.Seconds(), "advance_s", phases.Advance.Seconds())
	s.daysSinceSnap += int(to - from)
	if s.persistent() {
		if err := s.snapshotRound(); err != nil {
			return s.failPersist(err)
		}
	}
	return nil
}

// shardClose applies one close barrier inside a shard: WAL the barrier,
// sync it, and finalize and advance the shard's users' days. The barrier
// hits the log before any table mutation (WAL-before-apply), and under
// FsyncClose/FsyncAlways the log is synced at the barrier — a crash never
// loses a closed day.
func (s *Server) shardClose(sh *shard, env envelope) error {
	if err := s.persistErr(); err != nil {
		return err
	}
	if sh.applyErr != nil {
		return sh.applyErr
	}
	to := env.closeThrough
	closing := to > sh.closedThrough
	if sh.wal != nil && closing {
		if err := sh.wal.appendClose(to); err != nil {
			return s.failPersist(err)
		}
		if s.pcfg.Fsync != FsyncNever {
			if err := sh.wal.sync(); err != nil {
				return s.failPersist(err)
			}
		}
	}
	sh.phases = obs.ClosePhases{Barrier: time.Since(env.at)}
	if err := s.shardCloseDays(sh, to); err != nil {
		if sh.wal != nil && closing {
			// The barrier is already durably logged: a failure here means
			// memory has diverged from the log (the failed day's open
			// state is gone), so fail-stop rather than keep serving state
			// the log no longer describes.
			return s.failPersist(err)
		}
		return err
	}
	sh.stats.ObserveClose(sh.phases)
	return nil
}

// shardCloseDays closes the shard's days one by one — including days no
// event named: zero activity is a real measurement. The ingestor writes
// the day it accumulated into its table and the shard's windows slide
// forward over it, O(1) per cell, writing the day's deviations into the
// shard's rows of the shared field. No lock is needed: the caller reserved
// the room, and queries read only published headers, whose day count stops
// short of these days.
func (s *Server) shardCloseDays(sh *shard, to cert.Day) error {
	for d := sh.closedThrough + 1; d <= to; d++ {
		if sh.ing != nil {
			start := time.Now()
			if err := sh.ing.Table().EnsureDay(d); err != nil {
				return err
			}
			events, err := sh.ing.CloseDay(d)
			if err != nil {
				return err
			}
			mid := time.Now()
			if err := sh.ind.Advance(); err != nil {
				return err
			}
			sh.phases.Finalize += mid.Sub(start)
			sh.phases.Advance += time.Since(mid)
			sh.phases.Events += events
		}
		sh.closedThrough = d
	}
	return nil
}

// publishDays fills the group state of the closed days [from, to] and
// publishes them, timing each day's fill as close_merge and the publish
// as merge_publish.
func (s *Server) publishDays(from, to cert.Day) error {
	for d := from; d <= to; d++ {
		start := time.Now()
		if err := s.fillGroupDays(d, d); err != nil {
			return err
		}
		s.obs.ObserveMerge(start)
		s.obs.SetPendingMergeDays(int64(to - d))
	}
	start := time.Now()
	if err := s.publish(to); err != nil {
		return err
	}
	s.obs.ObserveMergePublish(start)
	return nil
}

// publish makes every day through `to` visible to queries: it extends the
// shared field over the rows the shards filled, freezes headers over it
// and the group field, rebinds the serving detector onto them — carrying
// its score memo forward: the model is the same, and nothing is scored
// here, so a day nobody ranks costs the close nothing — and swaps the lot
// in with one pointer store. Coordinator only (and recovery).
func (s *Server) publish(to cert.Day) error {
	s.sigma.ExtendTo(to)
	next := &published{ind: s.sigma.Freeze(), closedThrough: to}
	if s.grp != nil {
		next.grp = s.grp.Field().Freeze()
	}
	s.pubMu.Lock()
	defer s.pubMu.Unlock()
	if cur := s.pub.Load(); cur != nil && cur.det != nil {
		det, err := cur.det.Rebind(next.ind, next.grp, s.cfg.Membership)
		if err != nil {
			return err
		}
		next.det, next.scores = det, cur.scores
	}
	s.pub.Store(next)
	return nil
}

// fillGroupDays computes every group's member-average measurements for
// the closed days [from, to] from the quiescent shard tables, splitting
// the (feature, frame) planes over free compute workers, and advances the
// group stream over them (nothing to do without groups). Each chunk is
// one features.Groups.FillDays call over the shard tables — the kernel
// the batch GroupTable runs — so the served group means equal the batch
// ones however the users are spread over shards.
func (s *Server) fillGroupDays(from, to cert.Day) error {
	if s.grp == nil || to < from {
		return nil
	}
	if err := s.grpTbl.EnsureDay(to); err != nil {
		return err
	}
	member := func(u int) (*features.Table, int) {
		return s.shards[s.userShard[u]].ing.Table(), s.userLocal[u]
	}
	fill := func(plo, phi int) { s.groups.FillDays(s.grpTbl, from, to, plo, phi, member) }
	planes := len(s.feats) * s.frames
	workers := min(nn.WorkerBudget(), planes)
	chunk := (planes + workers - 1) / max(workers, 1)
	var wg sync.WaitGroup
	for lo := 0; lo < planes; lo += chunk {
		hi := min(lo+chunk, planes)
		if hi < planes && nn.TryAcquireWorker() {
			wg.Add(1)
			go func(lo, hi int) {
				defer wg.Done()
				defer nn.ReleaseWorker()
				fill(lo, hi)
			}(lo, hi)
		} else {
			fill(lo, hi)
		}
	}
	wg.Wait()
	return s.grp.Advance()
}
