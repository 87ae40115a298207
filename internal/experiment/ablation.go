package experiment

import (
	"fmt"

	"acobe/internal/cert"
	"acobe/internal/core"
	"acobe/internal/metrics"
)

// AblationResult is one configuration's detection quality on a scenario.
type AblationResult struct {
	Name    string
	AUC     float64
	AP      float64
	FPs     []int
	Insider int // insider's worst-case list position (1 = top)
}

// evalRun reduces one scenario run to an ablation row.
func evalRun(name string, run *ScenarioRun) (AblationResult, error) {
	curves, err := metrics.Evaluate(run.Items)
	if err != nil {
		return AblationResult{}, err
	}
	pos := -1
	for i, it := range metrics.OrderWorstCase(run.Items) {
		if it.Positive {
			pos = i + 1
			break
		}
	}
	return AblationResult{Name: name, AUC: curves.AUC, AP: curves.AP, FPs: curves.FPsBeforeTP(), Insider: pos}, nil
}

// RunScenarioWithPreset is RunScenario with the preset's deviation and
// training knobs overridden — the ablation sweeps' entry point. The
// dataset itself (users, events, measurements) is shared; only the
// derived fields and models change.
func RunScenarioWithPreset(data *CERTData, p Preset, kind ModelKind, sc cert.Scenario) (*ScenarioRun, error) {
	saved := data.Preset
	data.Preset = p
	defer func() { data.Preset = saved }()
	return RunScenario(data, kind, sc)
}

// sweep evaluates ACOBE on one scenario once per name: set(&p, i) adjusts
// a copy p of the data's preset for the run named names[i].
func sweep(data *CERTData, sc cert.Scenario, names []string, set func(p *Preset, i int)) ([]AblationResult, error) {
	var out []AblationResult
	for i, name := range names {
		p := data.Preset
		set(&p, i)
		run, err := RunScenarioWithPreset(data, p, ModelACOBE, sc)
		if err != nil {
			return nil, fmt.Errorf("experiment: sweep %s: %w", name, err)
		}
		res, err := evalRun(name, run)
		if err != nil {
			return nil, err
		}
		out = append(out, res)
	}
	return out, nil
}

// SweepWindow evaluates ACOBE on one scenario with different history
// window sizes ω (the paper uses 30 for CERT, 14 for the enterprise).
func SweepWindow(data *CERTData, sc cert.Scenario, windows []int) ([]AblationResult, error) {
	names := make([]string, len(windows))
	for i, w := range windows {
		names[i] = fmt.Sprintf("ω=%d", w)
	}
	return sweep(data, sc, names, func(p *Preset, i int) { p.Deviation.Window = windows[i] })
}

// SweepMatrixDays evaluates ACOBE with different matrix spans 𝒟.
func SweepMatrixDays(data *CERTData, sc cert.Scenario, spans []int) ([]AblationResult, error) {
	names := make([]string, len(spans))
	for i, md := range spans {
		names[i] = fmt.Sprintf("D=%d", md)
	}
	return sweep(data, sc, names, func(p *Preset, i int) { p.Deviation.MatrixDays = spans[i] })
}

// SweepWeighting evaluates ACOBE with and without the TF-style feature
// weights w = 1/log2(max(std, 2)).
func SweepWeighting(data *CERTData, sc cert.Scenario) ([]AblationResult, error) {
	return sweep(data, sc, []string{"weighted", "unweighted"}, func(p *Preset, i int) { p.Deviation.Weighted = i == 0 })
}

// SweepAggregation compares the two window-pooling aggregators (absolute
// max vs day-relative max) on an existing run's score series, re-ranking
// without retraining.
func SweepAggregation(data *CERTData, run *ScenarioRun) ([]AblationResult, error) {
	aggs := []struct {
		name string
		fn   func(*core.ScoreSeries) []float64
	}{
		{"relative-max", core.AggregateRelativeMax},
		{"absolute-max", core.AggregateMax},
	}
	var out []AblationResult
	for _, agg := range aggs {
		scoresByAspect := make([][]float64, len(run.Series))
		for i, s := range run.Series {
			scoresByAspect[i] = agg.fn(s)
		}
		list := core.Critic(data.UserIDs, scoresByAspect, data.Preset.N)
		clone := *run
		clone.List = list
		clone.Items = itemsFromList(data, list, run.Insider)
		res, err := evalRun(agg.name, &clone)
		if err != nil {
			return nil, err
		}
		out = append(out, res)
	}
	return out, nil
}
