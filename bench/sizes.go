package main

import "acobe/internal/deviation"

// spec freezes one workload: the deployment shape of the daemon, the
// traffic, and every size. BENCHMARK.json admits only a fixed set of
// keys, so the frozen sizes live here and are stamped into every result
// file instead. Changing any of them makes earlier results incomparable.
type spec struct {
	Name string `json:"name"`

	// Deployment.
	Users   int  `json:"users"` // rounded up to a multiple of the 4 departments
	Shards  int  `json:"shards"`
	Durable bool `json:"durable"` // the serving daemon runs on a data dir: FsyncClose, audit trail, snapshots

	// An in-memory workload measures snapshot and recovery cost in a
	// second, short daemon life on disk that takes its first DurableDays
	// days; the durable workload's own life is that.
	DurableDays   int `json:"durable_days,omitempty"`
	SnapshotEvery int `json:"snapshot_every"` // closes between snapshots
	Recoveries    int `json:"recoveries"`     // Start→Shutdown repeats on the written directory

	// Traffic. HTTP workloads send pre-encoded NDJSON bodies through the
	// loopback listener; the others call Server.Submit in-process.
	HTTP        bool    `json:"http"`
	OpenLoop    bool    `json:"open_loop"`    // one paced sender beside one closed-loop rank reader
	RatePerS    float64 `json:"rate_per_s"`   // open-loop batch release rate
	Clients     int     `json:"clients"`      // closed-loop senders (≤ nproc)
	BatchEvents int     `json:"batch_events"` // events per body / Submit call
	WarmRanks   int     `json:"warm_ranks"`   // warm repeats after each cold rank
	RankTop     int     `json:"rank_top"`     // top= on HTTP ranks

	// Geometry and model.
	Window     int   `json:"window"`      // ω
	MatrixDays int   `json:"matrix_days"` // 𝒟
	Hidden     []int `json:"hidden"`
	Epochs     int   `json:"epochs"`

	// Calendar. Day 2 is the dataset's first Monday. Days before
	// TimedFrom are preloaded in-process during set-up; the set-up fit
	// runs once FitDay has closed, and ranks are issued on every timed
	// day after it. The measured retrain at the end spans the last
	// RetrainDays days.
	FirstDay    int `json:"first_day"`
	TimedFrom   int `json:"timed_from"`
	FitDay      int `json:"fit_day"`
	LastDay     int `json:"last_day"`
	RetrainDays int `json:"retrain_days"`
	Retrains    int `json:"retrains"` // measured retrains per cycle
}

// deviation is the paper's deviation configuration at the spec's geometry.
func (s spec) deviation() deviation.Config {
	return deviation.Config{Window: s.Window, MatrixDays: s.MatrixDays, Delta: 3, Epsilon: 1, Weighted: true}
}

func (s spec) firstScoreable() int { return s.FirstDay + s.Window - 1 + s.MatrixDays - 1 }

// rankFrom is the first day of the 7-day window ending at d, clamped to
// the first day a compound matrix exists for.
func (s spec) rankFrom(d int) int { return max(d-6, s.firstScoreable()) }

// The four serving workloads. The issue sized them at 20k and 10k users
// for 30–60 s timed sections; the acceptance contract leaves about 26 s
// per run, and the host's noise asks for several short daemon lives per
// run rather than one long one. So user counts shrink (to 500 and 250) and
// day counts do not, and batch sizes shrink with them so that a cycle
// still acks hundreds of batches.
//
// RatePerS of rank_under_ingest is 40% of what one closed-loop sender of
// 100-event bodies reaches against this daemon at the seed commit on the
// undisturbed reference host: five 12 s runs of that workload with
// OpenLoop off and Clients 1 acked a body in 0.43–0.50 ms (median
// 0.45 ms, so about 2200 bodies/s; 179–203k events/s with the closes in
// the windows). The constant does not track later commits.
var specs = []spec{
	{
		Name: "ingest_http", Users: 500, Shards: 2, DurableDays: 3, SnapshotEvery: 2, Recoveries: 2,
		HTTP: true, Clients: 2, BatchEvents: 500, WarmRanks: 4, RankTop: 50,
		Window: 7, MatrixDays: 5, Hidden: []int{64, 32}, Epochs: 2,
		FirstDay: 2, TimedFrom: 16, FitDay: 15, LastDay: 20, RetrainDays: 8, Retrains: 2,
	},
	{
		Name: "ingest_durable", Users: 250, Shards: 1, Durable: true, SnapshotEvery: 2, Recoveries: 2,
		Clients: 2, BatchEvents: 200, WarmRanks: 4, RankTop: 50,
		Window: 7, MatrixDays: 5, Hidden: []int{64, 32}, Epochs: 2,
		FirstDay: 2, TimedFrom: 2, FitDay: 15, LastDay: 20, RetrainDays: 8, Retrains: 2,
	},
	{
		Name: "day_cycle", Users: 500, Shards: 2, DurableDays: 3, SnapshotEvery: 2, Recoveries: 2,
		Clients: 2, BatchEvents: 300, WarmRanks: 4, RankTop: 50,
		Window: 7, MatrixDays: 5, Hidden: []int{64, 32}, Epochs: 2,
		FirstDay: 2, TimedFrom: 13, FitDay: 12, LastDay: 26, RetrainDays: 8, Retrains: 2,
	},
	{
		Name: "rank_under_ingest", Users: 500, Shards: 2, DurableDays: 3, SnapshotEvery: 2, Recoveries: 2,
		HTTP: true, OpenLoop: true, RatePerS: 900, Clients: 1, BatchEvents: 100, WarmRanks: 10, RankTop: 50,
		Window: 7, MatrixDays: 5, Hidden: []int{64, 32}, Epochs: 2,
		FirstDay: 2, TimedFrom: 17, FitDay: 16, LastDay: 20, RetrainDays: 8, Retrains: 2,
	},
}

func specByName(name string) (spec, bool) {
	for _, s := range specs {
		if s.Name == name {
			return s, true
		}
	}
	return spec{}, false
}
