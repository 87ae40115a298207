package serve

import (
	"time"

	"acobe/internal/cert"
	"acobe/internal/obs"
)

// StatusSchemaVersion is the version stamped into every status report.
// Additions bump nothing (new fields are backward compatible); a removed
// or re-typed field bumps the version.
const StatusSchemaVersion = 1

// ShardStatus is one shard's row in the status report.
type ShardStatus struct {
	Shard      int   `json:"shard"`
	Users      int   `json:"users"`
	QueueDepth int   `json:"queue_depth"`
	Ingested   int64 `json:"ingested"`
	Late       int64 `json:"late"`
	Unknown    int64 `json:"unknown_user_events"` // named a user outside the roster: logged, then skipped (per process)
}

// PersistStatus describes the durability layer when it is enabled.
type PersistStatus struct {
	Fsync         string `json:"fsync"`
	SnapshotEvery int    `json:"snapshot_every"`
	// Recovery is what the Open that started this server reconstructed
	// and where that open's time went.
	Recovery *RecoverInfo `json:"recovery,omitempty"`
}

// Status is a point-in-time snapshot of the daemon's state. The flat
// fields are the v0 surface and never change; SchemaVersion, the shard
// rows, persistence block, and metrics snapshot are additive.
type Status struct {
	SchemaVersion int      `json:"schema_version"`
	UptimeSeconds float64  `json:"uptime_seconds"`
	Users         int      `json:"users"`
	Shards        int      `json:"shards"`
	ClosedThrough cert.Day `json:"closed_through"`
	// Events applied to a measurement; dropped for arriving after their day
	// closed; skipped for naming a user outside the roster.
	Ingested          int64 `json:"ingested"`
	Late              int64 `json:"late"`
	UnknownUserEvents int64 `json:"unknown_user_events"`
	QueueDepth        int   `json:"queue_depth"`
	Fitted            bool  `json:"fitted"`
	Retraining        bool  `json:"retraining"`
	// RankMemoBytes is the memory held by the serving model's score memo:
	// 8 B × users × aspects per day ranked since the last retrain.
	RankMemoBytes int64 `json:"rank_memo_bytes"`
	// LastTrainError carries the most recent retrain failure ("" if the
	// last retrain succeeded or none ran yet).
	LastTrainError string `json:"last_train_error,omitempty"`
	// PersistError is the fail-stop persistence failure, if any: once set,
	// the server refuses new work rather than diverge from its log.
	PersistError string `json:"persist_error,omitempty"`
	// ShardStatus has one row per shard (present even without an observer).
	ShardStatus []ShardStatus `json:"shard_status"`
	// Persistence is nil when the server runs in-memory only.
	Persistence *PersistStatus `json:"persistence,omitempty"`
	// Metrics is the observer scrape.
	Metrics *obs.Snapshot `json:"metrics"`
}

// Status reports ingest and model state.
func (s *Server) Status() Status {
	p := s.pub.Load()
	st := Status{
		SchemaVersion: StatusSchemaVersion,
		Users:         len(s.cfg.Users),
		Shards:        len(s.shards),
		ClosedThrough: p.closedThrough,
		Fitted:        p.det != nil,
		Retraining:    s.retraining.Load(),
		RankMemoBytes: p.scores.bytes(),
	}
	if !s.startTime.IsZero() {
		st.UptimeSeconds = time.Since(s.startTime).Seconds()
	}
	st.ShardStatus = make([]ShardStatus, len(s.shards))
	for k, sh := range s.shards {
		row := ShardStatus{
			Shard:      k,
			Users:      len(sh.users),
			QueueDepth: len(sh.queue),
			Ingested:   sh.ingested.Load(),
			Late:       sh.late.Load(),
			Unknown:    sh.unknown.Load(),
		}
		st.ShardStatus[k] = row
		st.Ingested += row.Ingested
		st.Late += row.Late
		st.UnknownUserEvents += row.Unknown
		st.QueueDepth += row.QueueDepth
	}
	st.QueueDepth += len(s.queue)
	if s.persistent() {
		st.Persistence = &PersistStatus{
			Fsync:         s.pcfg.Fsync.String(),
			SnapshotEvery: s.pcfg.SnapshotEvery,
			Recovery:      s.recovery,
		}
	}
	if box, ok := s.lastTrainErr.Load().(errBox); ok && box.err != nil {
		st.LastTrainError = box.err.Error()
	}
	if err := s.persistErr(); err != nil {
		st.PersistError = err.Error()
	}
	st.Metrics = s.MetricsSnapshot()
	return st
}

// MetricsSnapshot scrapes the attached observer and overlays the live
// gauges only the server knows (per-shard user counts, current queue
// depths, ingested/late/unknown-user totals).
func (s *Server) MetricsSnapshot() *obs.Snapshot {
	snap := s.obs.Snapshot()
	unknown := int64(0)
	for i := range snap.Shards {
		if i >= len(s.shards) {
			break
		}
		sh := s.shards[i]
		snap.Shards[i].Users = len(sh.users)
		snap.Shards[i].QueueDepth = len(sh.queue)
		snap.Shards[i].Ingested = sh.ingested.Load()
		snap.Shards[i].Late = sh.late.Load()
		snap.Shards[i].Unknown = sh.unknown.Load()
		unknown += snap.Shards[i].Unknown
	}
	snap.Counters = append(snap.Counters, obs.Counter{Name: obs.CounterUnknownUserEvents, Value: unknown})
	return snap
}

// Observer returns the observer the server records into: Config.Observer,
// or the one New/Open created.
func (s *Server) Observer() *obs.Observer { return s.obs }
