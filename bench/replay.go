package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"time"

	"acobe/internal/audit"
	"acobe/internal/autoencoder"
	"acobe/internal/cert"
	"acobe/internal/deviation"
	"acobe/internal/nn"
	"acobe/internal/serve"
	"acobe/pkg/acobe"
	"acobe/pkg/acobe/daemon"
)

// replayEvents caps how many events one replay feeds its layer: enough
// for a steady per-event cost, small enough that the traced run stays
// inside the run's time budget.
const replayEvents = 40000

// replays feeds the run's own inputs through single layers in isolation,
// by their public functions, and reports each layer's cost. It runs in
// the traced run only, after the cycles, so nothing else is on the CPUs.
func replays(ctx context.Context, sp spec, in *inputs, or *oracleResult, tr *tracer, m *metrics) error {
	timed := func(name string, f func() error) (float64, error) {
		id := tr.begin(name, -1, 0)
		t := time.Now()
		err := f()
		s := time.Since(t).Seconds()
		tr.end(id)
		return s, err
	}

	// Sample: the first days that are held as in-process events (every
	// workload preloads or sends some), up to replayEvents events.
	var days []*dayInput
	var events int
	for _, di := range in.days {
		if di == nil || di.events == nil || events >= replayEvents {
			continue
		}
		days = append(days, di)
		events += di.n
	}
	if events == 0 {
		return fmt.Errorf("replay: no in-process day to sample")
	}

	// serve.http: the ingest handler's decode loop over NDJSON bodies of
	// the workload's batch size.
	var bodies [][]byte
	bodyBytes := 0
	for _, di := range days {
		cp := dayInput{events: di.events}
		if err := cp.encode(sp.BatchEvents); err != nil {
			return err
		}
		bodies = append(bodies, cp.bodies...)
	}
	for _, b := range bodies {
		bodyBytes += len(b)
	}
	m.set("cert.encode_bytes_per_event", "B", float64(bodyBytes)/float64(events), events)
	decoded := 0
	s, err := timed("replay.serve.http.decode", func() error {
		for _, b := range bodies {
			sc := bufio.NewScanner(bytes.NewReader(b))
			sc.Buffer(make([]byte, 0, 64*1024), 4*1024*1024)
			for sc.Scan() {
				var e serve.Event
				if err := json.Unmarshal(sc.Bytes(), &e); err != nil {
					return err
				}
				decoded++
			}
			if err := sc.Err(); err != nil {
				return err
			}
		}
		return nil
	})
	if err != nil || decoded != events {
		return fmt.Errorf("replay decode: %d of %d events: %v", decoded, events, err)
	}
	m.set("serve.http.decode_ns_per_event", "ns", s*1e9/float64(events), events)

	// audit: Merkle leaves + root per batch, then the chain fold per frame.
	tree, roots := audit.NewTree(), make([]audit.Head, len(bodies))
	s, _ = timed("replay.audit.merkle", func() error {
		for i, b := range bodies {
			tree.Reset()
			for _, line := range bytes.Split(b, []byte{'\n'}) {
				if len(line) > 0 {
					tree.AddLeaf(line)
				}
			}
			roots[i] = tree.Root()
		}
		return nil
	})
	m.set("audit.merkle_ns_per_event", "ns", s*1e9/float64(events), events)
	chain := audit.NewChain(audit.Head{})
	s, _ = timed("replay.audit.chain_fold", func() error {
		for i, b := range bodies {
			chain.FoldWithRoot(b, roots[i])
		}
		return nil
	})
	m.set("audit.chain_fold_ns_per_frame", "ns", s*1e9/float64(len(bodies)), len(bodies))

	// features: the CERT ingestor's day extraction.
	ing, err := serve.NewCERTIngestor(in.ids, cert.Day(days[0].day))
	if err != nil {
		return err
	}
	s, err = timed("replay.features.extract", func() error {
		for _, di := range days {
			evs := make([]daemon.Event, len(di.events))
			for i := range di.events {
				evs[i] = daemon.Event{Cert: &di.events[i]}
			}
			if err := ing.Table().EnsureDay(cert.Day(di.day)); err != nil {
				return err
			}
			if err := ing.ConsumeDay(cert.Day(di.day), evs); err != nil {
				return err
			}
		}
		return nil
	})
	if err != nil {
		return fmt.Errorf("replay extract: %w", err)
	}
	m.set("features.extract_ns_per_event", "ns", s*1e9/float64(events), events)

	// deviation: the streaming window advance over the oracle's table.
	tbl := in.oracle.Table()
	dcfg := sp.deviation()
	sf, err := deviation.NewStreamField(tbl, dcfg)
	if err != nil {
		return err
	}
	s, err = timed("replay.deviation.advance", sf.Advance)
	if err != nil {
		return fmt.Errorf("replay advance: %w", err)
	}
	userDays := len(in.ids) * tbl.Days()
	m.set("deviation.advance_ns_per_user_day", "ns", s*1e9/float64(userDays), userDays)
	m.set("features.table_bytes_per_user_day", "B", float64(8*len(tbl.Features())*tbl.Frames()), userDays)

	// core: the batched scoring pass and the critic behind one rank.
	from, to := cert.Day(sp.rankFrom(sp.LastDay)), cert.Day(sp.LastDay)
	var scoreMS, criticMS []float64
	series := or.series
	for k := 0; k < 5; k++ {
		s, err = timed("replay.core.score_batch", func() (err error) {
			series, err = or.det.ScoreBatchInto(ctx, series, from, to)
			return err
		})
		if err != nil {
			return fmt.Errorf("replay score: %w", err)
		}
		scoreMS = append(scoreMS, s*1e3)
		s, _ = timed("replay.core.critic", func() error {
			critic(or.det.Users(), series)
			return nil
		})
		criticMS = append(criticMS, s*1e3)
	}
	m.set("core.score_batch_ms", "ms", median(scoreMS), len(scoreMS))
	scored := len(in.ids) * (sp.LastDay - sp.rankFrom(sp.LastDay) + 1)
	m.set("core.score_user_days_per_s", "1/s", float64(scored)/(median(scoreMS)/1e3), scored)
	m.set("core.critic_ms", "ms", median(criticMS), len(criticMS))

	// autoencoder: one aspect's fit and batched scoring, on the matrices
	// the measured retrain trains on.
	ind, err := acobe.ComputeDeviations(tbl, dcfg)
	if err != nil {
		return err
	}
	gt, err := tbl.GroupTable(in.groups, in.membership)
	if err != nil {
		return err
	}
	grp, err := acobe.ComputeDeviations(gt, dcfg)
	if err != nil {
		return err
	}
	b, err := deviation.NewBuilder(ind, grp, in.membership, acobe.ACOBEAspects()[0])
	if err != nil {
		return err
	}
	mat := nn.NewMatrix(len(in.ids)*sp.RetrainDays, b.Dim())
	row := 0
	for u := range in.ids {
		for d := sp.LastDay - sp.RetrainDays + 1; d <= sp.LastDay; d++ {
			if err := b.BuildInto(u, cert.Day(d), mat.Row(row)); err != nil {
				return err
			}
			row++
		}
	}
	mc := acobe.FastModelConfig(b.Dim())
	mc.Hidden, mc.Epochs = sp.Hidden, sp.Epochs
	ae, err := autoencoder.New(mc)
	if err != nil {
		return err
	}
	s, err = timed("replay.autoencoder.fit", func() error {
		_, err := ae.Fit(ctx, mat)
		return err
	})
	if err != nil {
		return fmt.Errorf("replay fit: %w", err)
	}
	m.set("autoencoder.fit_samples_per_s", "1/s", float64(mat.Rows*sp.Epochs)/s, mat.Rows*sp.Epochs)
	scorer := ae.NewScorer()
	var dst []float64
	var rowsPerS []float64
	for k := 0; k < 5; k++ {
		s, err = timed("replay.autoencoder.score", func() (err error) {
			dst, err = scorer.ScoreBatch(mat, dst[:0])
			return err
		})
		if err != nil {
			return fmt.Errorf("replay autoencoder score: %w", err)
		}
		rowsPerS = append(rowsPerS, float64(mat.Rows)/s)
	}
	m.set("autoencoder.score_rows_per_s", "1/s", median(rowsPerS), mat.Rows)
	return nil
}
