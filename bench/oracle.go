package main

import (
	"context"
	"encoding/json"
	"time"

	"acobe/internal/cert"
	"acobe/pkg/acobe"
)

// oracleResult is the offline batch pipeline's output over the run's
// events: the ranked list every cycle's final list must equal byte for
// byte, and how long each stage took.
type oracleResult struct {
	list []byte // JSON of the ranked list

	extractS, deviationS, fitS, scoreS, criticS float64
	totalS                                      float64 // the five stages plus the gaps between them

	det    *acobe.Detector
	series []*acobe.ScoreSeries
}

// runOracle runs the pkg/acobe batch pipeline with the daemon's options
// and the measured retrain's fit span: table → NewDetector (deviation
// fields) → Fit → ScoreBatch → aggregate + Critic. Extraction already
// happened while the inputs were generated; its time is carried in.
func runOracle(ctx context.Context, sp spec, in *inputs, seed uint64, tr *tracer) (*oracleResult, error) {
	r := &oracleResult{extractS: in.extractS}
	from, to := cert.Day(sp.rankFrom(sp.LastDay)), cert.Day(sp.LastDay)
	stage := func(name string, into *float64, f func() error) error {
		id := tr.begin(name, -1, 0)
		t := time.Now()
		err := f()
		*into = time.Since(t).Seconds()
		tr.end(id)
		return err
	}

	t0 := time.Now()
	opts := append(detectorOptions(sp.Hidden, sp.Epochs, seed),
		acobe.WithGroups(in.groups, in.membership),
		acobe.WithDeviationConfig(sp.deviation()))
	err := stage("offline.deviation", &r.deviationS, func() (err error) {
		r.det, err = acobe.NewDetector(in.oracle.Table(), opts...)
		return err
	})
	if err != nil {
		return nil, err
	}
	err = stage("offline.fit", &r.fitS, func() error {
		_, err := r.det.Fit(ctx, cert.Day(sp.LastDay-sp.RetrainDays+1), to)
		return err
	})
	if err != nil {
		return nil, err
	}
	err = stage("offline.score", &r.scoreS, func() (err error) {
		r.series, err = r.det.ScoreBatch(ctx, from, to)
		return err
	})
	if err != nil {
		return nil, err
	}
	var list []acobe.Ranked
	_ = stage("offline.critic", &r.criticS, func() error {
		list = critic(r.det.Users(), r.series)
		return nil
	})
	r.totalS = r.extractS + time.Since(t0).Seconds()
	r.list, err = json.Marshal(list)
	return r, err
}

// critic is the tail of Detector.Rank: aggregate each aspect's series to
// one score per user, then vote (N=2, the daemon's setting).
func critic(users []string, series []*acobe.ScoreSeries) []acobe.Ranked {
	byAspect := make([][]float64, len(series))
	for i, s := range series {
		byAspect[i] = acobe.AggregateRelativeMax(s)
	}
	return acobe.Critic(users, byAspect, 2)
}
