package experiment

import (
	"context"
	"fmt"

	"acobe/internal/attack"
	"acobe/internal/autoencoder"
	"acobe/internal/cert"
	"acobe/internal/core"
	"acobe/internal/deviation"
	"acobe/internal/enterprise"
	"acobe/internal/logstore"
)

// AttackKind selects the case-study attack.
type AttackKind string

// The two case-study attacks (Figure 7).
const (
	AttackZeus       AttackKind = "zeus"
	AttackRansomware AttackKind = "ransomware"
)

// EnterprisePreset scales the case-study run.
type EnterprisePreset struct {
	Name      string
	Employees int
	Deviation deviation.Config
	AEConfig  func(inputDim int) autoencoder.Config
	// TrainStride samples training days.
	TrainStride int
	// N is the critic vote count over the six aspects.
	N    int
	Seed uint64
}

// EnterpriseDefaultPreset mirrors the paper: 246 employees, two-week
// window.
func EnterpriseDefaultPreset() EnterprisePreset {
	return EnterprisePreset{
		Name:      "enterprise",
		Employees: 246,
		Deviation: deviation.Config{Window: 14, MatrixDays: 14, Delta: 3, Epsilon: 1, Weighted: true},
		AEConfig: func(dim int) autoencoder.Config {
			cfg := autoencoder.FastConfig(dim)
			cfg.Hidden = []int{64, 32}
			cfg.Epochs = 40
			cfg.EarlyStopDelta = 0.002
			cfg.Patience = 3
			return cfg
		},
		TrainStride: 3,
		N:           3,
		Seed:        2021,
	}
}

// EnterpriseTinyPreset is for unit tests.
func EnterpriseTinyPreset() EnterprisePreset {
	p := EnterpriseDefaultPreset()
	p.Name = "enterprise-tiny"
	p.Employees = 30
	p.AEConfig = func(dim int) autoencoder.Config {
		cfg := autoencoder.FastConfig(dim)
		cfg.Hidden = []int{48, 24}
		cfg.Epochs = 25
		cfg.EarlyStopDelta = 0.002
		cfg.Patience = 3
		return cfg
	}
	p.TrainStride = 4
	return p
}

// EnterpriseRun is the outcome of one case-study evaluation.
type EnterpriseRun struct {
	Attack AttackKind
	Victim string

	TrainFrom, TrainTo cert.Day
	ScoreFrom, ScoreTo cert.Day
	AttackDay          cert.Day

	// Series holds per-aspect daily scores for every employee over
	// [ScoreFrom, ScoreTo] — the Figure 7 waveforms.
	Series []*core.ScoreSeries
	// Users lists employee IDs in score order.
	Users []string
	// VictimDailyRank[i] is the victim's overall investigation rank
	// (1 = top) when the critic runs on day ScoreFrom+i alone.
	VictimDailyRank []int
}

// RunEnterprise simulates the enterprise with the chosen attack injected
// into a fixed victim, trains ACOBE on the six aspects, and scores the
// display window (mid-January through February) so the Jan-26
// environmental change and the Feb-2 attack are both visible.
func RunEnterprise(p EnterprisePreset, kind AttackKind) (*EnterpriseRun, error) {
	cfg := enterprise.DefaultConfig()
	cfg.Employees = p.Employees
	cfg.Seed = p.Seed
	victim := fmt.Sprintf("emp%03d", p.Employees/2)
	switch kind {
	case AttackZeus:
		cfg.Attacks = []enterprise.Attack{attack.NewZeus(victim, enterprise.DefaultAttackDay)}
	case AttackRansomware:
		cfg.Attacks = []enterprise.Attack{attack.NewRansomware(victim, enterprise.DefaultAttackDay)}
	default:
		return nil, fmt.Errorf("experiment: unknown attack kind %q", kind)
	}

	gen, err := enterprise.New(cfg)
	if err != nil {
		return nil, fmt.Errorf("experiment: %w", err)
	}
	ids := gen.EmployeeIDs()
	start, end := gen.Span()

	// Ingest through the log pipeline (the ELK stand-in), then extract.
	store := logstore.NewStore()
	if err := gen.StreamTo(store, 4); err != nil {
		return nil, fmt.Errorf("experiment: %w", err)
	}
	x, err := enterprise.NewExtractor(ids, start, end)
	if err != nil {
		return nil, fmt.Errorf("experiment: %w", err)
	}
	for _, d := range store.Days() {
		// Concurrent ingestion preserves no within-day order; the extractor
		// needs none (it attributes unique/new counts to the frame of a
		// key's earliest record, whatever order the records arrive in).
		if err := x.Consume(d, store.DayRecords(d)); err != nil {
			return nil, fmt.Errorf("experiment: %w", err)
		}
	}

	table := x.Table()
	group, err := table.GroupTable([]string{"all"}, make([]int, len(ids)))
	if err != nil {
		return nil, fmt.Errorf("experiment: %w", err)
	}
	ind, err := deviation.ComputeField(table, p.Deviation)
	if err != nil {
		return nil, fmt.Errorf("experiment: %w", err)
	}
	grp, err := deviation.ComputeField(group, p.Deviation)
	if err != nil {
		return nil, fmt.Errorf("experiment: %w", err)
	}

	det, err := core.NewDetector(core.Config{
		Deviation:    p.Deviation,
		Aspects:      enterprise.Aspects(),
		IncludeGroup: true,
		AEConfig:     p.AEConfig,
		TrainStride:  p.TrainStride,
		N:            p.N,
		Seed:         p.Seed,
	}, ind, grp, nil)
	if err != nil {
		return nil, fmt.Errorf("experiment: %w", err)
	}

	run := &EnterpriseRun{
		Attack:    kind,
		Victim:    victim,
		TrainFrom: start,
		TrainTo:   enterprise.DefaultTrainEnd,
		ScoreFrom: cert.MustDay("2011-01-10"),
		ScoreTo:   end,
		AttackDay: enterprise.DefaultAttackDay,
		Users:     ids,
	}
	if _, err := det.Fit(context.Background(), run.TrainFrom, run.TrainTo); err != nil {
		return nil, fmt.Errorf("experiment: %w", err)
	}
	series, err := det.Score(context.Background(), run.ScoreFrom, run.ScoreTo)
	if err != nil {
		return nil, fmt.Errorf("experiment: %w", err)
	}
	run.Series = series
	run.ScoreFrom = series[0].From // clamped by matrix availability
	run.ScoreTo = series[0].To

	// Daily critic: rank every employee each day from that day's
	// per-aspect scores; record the victim's position.
	vIdx := table.UserIndex(victim)
	days := series[0].DaysCovered()
	run.VictimDailyRank = make([]int, days)
	scoresByAspect := make([][]float64, len(series))
	for i := 0; i < days; i++ {
		for a, s := range series {
			col := make([]float64, len(ids))
			for u := range ids {
				col[u] = s.Scores[u][i]
			}
			scoresByAspect[a] = col
		}
		list := core.Critic(ids, scoresByAspect, p.N)
		for pos, r := range list {
			if r.User == ids[vIdx] {
				run.VictimDailyRank[i] = pos + 1
				break
			}
		}
	}
	return run, nil
}
