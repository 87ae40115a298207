package experiment

import (
	"bytes"
	"testing"

	"acobe/internal/autoencoder"
	"acobe/internal/cert"
	"acobe/internal/core"
	"acobe/internal/deviation"
	"acobe/internal/testkit"
)

// goldenPreset pins every scale knob of the golden CERT pipelines
// explicitly (it deliberately does not delegate to TinyPreset, so that
// retuning the test presets cannot silently shift the snapshots). The
// autoencoders are sized for speed, not detection quality: the goldens pin
// behavior, they do not re-prove the paper's claims.
func goldenPreset() Preset {
	return Preset{
		Name:         "golden",
		UsersPerDept: 10,
		Deviation:    deviation.Config{Window: 30, MatrixDays: 14, Delta: 3, Epsilon: 1, Weighted: true},
		AEConfig: func(dim int) autoencoder.Config {
			cfg := autoencoder.FastConfig(dim)
			cfg.Hidden = []int{24, 12}
			cfg.Epochs = 10
			cfg.EarlyStopDelta = 0.002
			cfg.Patience = 2
			return cfg
		},
		TrainStride: 6,
		N:           3,
		Seed:        42,
	}
}

// goldenEnterprisePreset pins the enterprise case-study golden knobs.
func goldenEnterprisePreset() EnterprisePreset {
	return EnterprisePreset{
		Name:      "golden-enterprise",
		Employees: 16,
		Deviation: deviation.Config{Window: 14, MatrixDays: 14, Delta: 3, Epsilon: 1, Weighted: true},
		AEConfig: func(dim int) autoencoder.Config {
			cfg := autoencoder.FastConfig(dim)
			cfg.Hidden = []int{24, 12}
			cfg.Epochs = 10
			cfg.EarlyStopDelta = 0.002
			cfg.Patience = 2
			return cfg
		},
		TrainStride: 6,
		N:           3,
		Seed:        2021,
	}
}

// Package-level caches: the golden tests share one dataset and one run per
// pipeline so the four snapshot tests plus the figure goldens stay cheap.
var (
	goldenCERT     *CERTData
	goldenCERTRuns = map[goldenKey]*ScenarioRun{}
	goldenEntRuns  = map[AttackKind]*EnterpriseRun{}
)

func goldenData(t *testing.T) *CERTData {
	t.Helper()
	if goldenCERT == nil {
		data, err := BuildCERTData(goldenPreset())
		if err != nil {
			t.Fatalf("build golden dataset: %v", err)
		}
		goldenCERT = data
	}
	return goldenCERT
}

// goldenKey names one cached golden run: a model variant on a scenario.
type goldenKey struct {
	kind     ModelKind
	scenario string
}

func goldenRun(t *testing.T, kind ModelKind, scenario string) *ScenarioRun {
	t.Helper()
	key := goldenKey{kind, scenario}
	if run, ok := goldenCERTRuns[key]; ok {
		return run
	}
	data := goldenData(t)
	sc := data.ScenarioByName(scenario)
	if sc == nil {
		t.Fatalf("scenario %s missing from golden dataset", scenario)
	}
	run, err := RunScenario(data, kind, sc)
	if err != nil {
		t.Fatalf("run %v on %s: %v", kind, scenario, err)
	}
	goldenCERTRuns[key] = run
	return run
}

func goldenEnterprise(t *testing.T, kind AttackKind) *EnterpriseRun {
	t.Helper()
	if run, ok := goldenEntRuns[kind]; ok {
		return run
	}
	run, err := RunEnterprise(goldenEnterprisePreset(), kind)
	if err != nil {
		t.Fatalf("run enterprise %s: %v", kind, err)
	}
	goldenEntRuns[kind] = run
	return run
}

// serializeList renders a scenario run's investigation list — the output
// ACOBE exists to produce (Algorithm 1) — for exact golden comparison.
// Any change to the ranking, the priorities, or the per-aspect ranks fails
// the snapshot.
func serializeList(run *ScenarioRun) []byte {
	var c testkit.CSV
	c.Comment("model=%v scenario=%s insider=%s", run.Model, run.Scenario, run.Insider)
	c.Comment("train=%v..%v test=%v..%v", run.TrainFrom, run.TrainTo, run.TestFrom, run.TestTo)
	header := []any{"pos", "user", "priority"}
	for _, s := range run.Series {
		header = append(header, "rank:"+s.Aspect)
	}
	c.Row(header...)
	for i, r := range run.List {
		row := []any{i + 1, r.User, r.Priority}
		for _, rk := range r.Ranks {
			row = append(row, rk)
		}
		c.Row(row...)
	}
	return c.Bytes()
}

// serializeScores renders the per-aspect aggregated score vector of every
// user plus the insider's per-day score series, for epsilon golden
// comparison (float series may wiggle in the last bits under refactors
// that reorder arithmetic; orderings above may not).
func serializeScores(data *CERTData, run *ScenarioRun) []byte {
	var c testkit.CSV
	c.Comment("model=%v scenario=%s aggregated=relative-max", run.Model, run.Scenario)
	header := []any{"user"}
	for _, s := range run.Series {
		header = append(header, s.Aspect)
	}
	c.Row(header...)
	agg := make([][]float64, len(run.Series))
	for i, s := range run.Series {
		agg[i] = core.AggregateRelativeMax(s)
	}
	for u, id := range data.UserIDs {
		row := []any{id}
		for i := range agg {
			row = append(row, agg[i][u])
		}
		c.Row(row...)
	}
	uIns := data.Table.UserIndex(run.Insider)
	for _, s := range run.Series {
		c.Floats("insider-daily:"+s.Aspect, s.Scores[uIns])
	}
	return c.Bytes()
}

// serializeEnterpriseRanks renders the case study's ordering output — the
// victim's daily investigation rank — for exact comparison.
func serializeEnterpriseRanks(run *EnterpriseRun) []byte {
	var c testkit.CSV
	c.Comment("attack=%s victim=%s attack-day=%v", run.Attack, run.Victim, run.AttackDay)
	c.Comment("train=%v..%v score=%v..%v employees=%d", run.TrainFrom, run.TrainTo, run.ScoreFrom, run.ScoreTo, len(run.Users))
	c.Ints("victim-daily-rank", run.VictimDailyRank)
	return c.Bytes()
}

// serializeEnterpriseScores renders the victim's per-aspect daily score
// series (the Figure 7 waveforms) for epsilon comparison.
func serializeEnterpriseScores(run *EnterpriseRun) []byte {
	var c testkit.CSV
	c.Comment("attack=%s victim=%s", run.Attack, run.Victim)
	vIdx := -1
	for i, id := range run.Users {
		if id == run.Victim {
			vIdx = i
		}
	}
	for _, s := range run.Series {
		c.Floats("victim:"+s.Aspect, s.Scores[vIdx])
	}
	return c.Bytes()
}

// scoreEps tolerates refactor-induced floating-point wiggle in score
// series while still catching any behavioral change: anomaly scores are
// O(1)-magnitude reconstruction errors, so 1e-9 is ~9 significant digits.
const scoreEps = 1e-9

func TestGoldenCERTScenario1(t *testing.T) {
	if testing.Short() {
		t.Skip("golden pipeline trains the ensemble")
	}
	run := goldenRun(t, ModelACOBE, "r6.1-s1")
	testkit.Golden(t, "cert_s1_list.csv", serializeList(run))
	testkit.GoldenCSV(t, "cert_s1_scores.csv", serializeScores(goldenData(t), run), scoreEps)
}

func TestGoldenCERTScenario2(t *testing.T) {
	if testing.Short() {
		t.Skip("golden pipeline trains the ensemble")
	}
	run := goldenRun(t, ModelACOBE, "r6.1-s2")
	testkit.Golden(t, "cert_s2_list.csv", serializeList(run))
	testkit.GoldenCSV(t, "cert_s2_scores.csv", serializeScores(goldenData(t), run), scoreEps)
}

// The single-day comparison models (Section V-C) share the ACOBE
// pipeline's autoencoders, aggregate and critic and differ only in their
// input rows, so one scenario each pins those rows end to end.

func TestGoldenOneDayScenario1(t *testing.T) {
	if testing.Short() {
		t.Skip("golden pipeline trains the ensemble")
	}
	run := goldenRun(t, ModelOneDay, "r6.1-s1")
	testkit.Golden(t, "oneday_s1_list.csv", serializeList(run))
	testkit.GoldenCSV(t, "oneday_s1_scores.csv", serializeScores(goldenData(t), run), scoreEps)
}

func TestGoldenBaselineScenario1(t *testing.T) {
	if testing.Short() {
		t.Skip("golden pipeline trains the ensemble")
	}
	run := goldenRun(t, ModelBaseline, "r6.1-s1")
	testkit.Golden(t, "baseline_s1_list.csv", serializeList(run))
	testkit.GoldenCSV(t, "baseline_s1_scores.csv", serializeScores(goldenData(t), run), scoreEps)
}

func TestGoldenBaseFFScenario1(t *testing.T) {
	if testing.Short() {
		t.Skip("golden pipeline trains the ensemble")
	}
	run := goldenRun(t, ModelBaseFF, "r6.1-s1")
	testkit.Golden(t, "baseff_s1_list.csv", serializeList(run))
	testkit.GoldenCSV(t, "baseff_s1_scores.csv", serializeScores(goldenData(t), run), scoreEps)
}

func TestGoldenEnterpriseZeus(t *testing.T) {
	if testing.Short() {
		t.Skip("golden pipeline trains the ensemble")
	}
	run := goldenEnterprise(t, AttackZeus)
	testkit.Golden(t, "ent_zeus_ranks.csv", serializeEnterpriseRanks(run))
	testkit.GoldenCSV(t, "ent_zeus_scores.csv", serializeEnterpriseScores(run), scoreEps)
}

func TestGoldenEnterpriseRansomware(t *testing.T) {
	if testing.Short() {
		t.Skip("golden pipeline trains the ensemble")
	}
	run := goldenEnterprise(t, AttackRansomware)
	testkit.Golden(t, "ent_ransomware_ranks.csv", serializeEnterpriseRanks(run))
	testkit.GoldenCSV(t, "ent_ransomware_scores.csv", serializeEnterpriseScores(run), scoreEps)
}

// TestGoldenFig4CSV pins the Figure 4 deviation-matrix CSV without any
// training (it only needs the deviation fields), covering the
// measurement → deviation → figure-serialization chain end to end.
func TestGoldenFig4CSV(t *testing.T) {
	if testing.Short() {
		t.Skip("golden pipeline builds the full dataset")
	}
	heatmaps, err := BuildFig4(goldenData(t))
	if err != nil {
		t.Fatalf("build fig4: %v", err)
	}
	if len(heatmaps) != 4 {
		t.Fatalf("%d heatmaps, want 4 (2 aspects × 2 frames)", len(heatmaps))
	}
	var buf bytes.Buffer
	if err := heatmaps[2].WriteCSV(&buf); err != nil {
		t.Fatalf("serialize heatmap: %v", err)
	}
	testkit.GoldenCSV(t, "fig4_http_work.csv", buf.Bytes(), scoreEps)
}

// TestGoldenFig5CSV pins the Figure 5 waveform CSV emitted by cmd/repro
// for the paper's running example (ACOBE, http aspect, r6.1-s2).
func TestGoldenFig5CSV(t *testing.T) {
	if testing.Short() {
		t.Skip("golden pipeline trains the ensemble")
	}
	run := goldenRun(t, ModelACOBE, "r6.1-s2")
	w, err := BuildFig5Waveform(goldenData(t), run, "http")
	if err != nil {
		t.Fatalf("build fig5 waveform: %v", err)
	}
	var buf bytes.Buffer
	if err := w.Chart.WriteCSV(&buf); err != nil {
		t.Fatalf("serialize chart: %v", err)
	}
	testkit.GoldenCSV(t, "fig5_acobe_http.csv", buf.Bytes(), scoreEps)
}

// TestGoldenPipelineDeterministic mechanically proves the acceptance
// criterion that two consecutive -update runs produce byte-identical
// golden files: a from-scratch rebuild of the dataset, the detector, and
// the scenario run must serialize to exactly the bytes of the cached run
// (which the snapshot tests above compared against disk).
func TestGoldenPipelineDeterministic(t *testing.T) {
	if testing.Short() {
		t.Skip("golden pipeline trains the ensemble twice")
	}
	first := goldenRun(t, ModelACOBE, "r6.1-s1")
	wantList := serializeList(first)
	wantScores := serializeScores(goldenData(t), first)

	data2, err := BuildCERTData(goldenPreset())
	if err != nil {
		t.Fatalf("rebuild golden dataset: %v", err)
	}
	run2, err := RunScenario(data2, ModelACOBE, data2.ScenarioByName("r6.1-s1"))
	if err != nil {
		t.Fatalf("rerun scenario: %v", err)
	}
	if !bytes.Equal(serializeList(run2), wantList) {
		t.Error("investigation list serialization differs between two from-scratch runs")
	}
	if !bytes.Equal(serializeScores(data2, run2), wantScores) {
		t.Error("score serialization differs between two from-scratch runs")
	}
}

// TestGoldenRankingSensitivity guards the harness itself: a swapped pair
// in the investigation list must produce different golden bytes, so a
// future ranking regression cannot slip through the exact comparison.
func TestGoldenRankingSensitivity(t *testing.T) {
	run := &ScenarioRun{
		Model:    ModelACOBE,
		Scenario: "synthetic",
		Insider:  "u1",
		Series:   []*core.ScoreSeries{{Aspect: "a", From: cert.Day(0), To: cert.Day(0)}},
		List: []core.Ranked{
			{User: "u1", Ranks: []int{1}, Priority: 1},
			{User: "u2", Ranks: []int{2}, Priority: 2},
		},
	}
	base := append([]byte(nil), serializeList(run)...)
	run.List[0], run.List[1] = run.List[1], run.List[0]
	if bytes.Equal(base, serializeList(run)) {
		t.Fatal("swapping two ranked users did not change the golden serialization")
	}
}
