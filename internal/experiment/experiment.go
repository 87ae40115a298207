// Package experiment is the shared harness behind cmd/repro, the examples
// and the benchmarks: it synthesizes datasets, extracts measurement
// tables, trains every model variant of the paper's evaluation (ACOBE,
// No-Group, 1-Day, All-in-1, Baseline, Base-FF), and computes the series
// each figure reports.
package experiment

import (
	"context"
	"fmt"
	"sync"

	"acobe/internal/autoencoder"
	"acobe/internal/baseline"
	"acobe/internal/cert"
	"acobe/internal/core"
	"acobe/internal/deviation"
	"acobe/internal/features"
	"acobe/internal/metrics"
)

// Preset bundles the scale knobs of one experiment run.
type Preset struct {
	Name string
	// UsersPerDept scales the organization (paper: 233 → ~929 users).
	UsersPerDept int
	// Deviation carries ω, 𝒟, Δ, ε and weighting.
	Deviation deviation.Config
	// AEConfig sizes the autoencoders.
	AEConfig func(inputDim int) autoencoder.Config
	// TrainStride samples every k-th training day.
	TrainStride int
	// N is the critic's vote count.
	N int
	// Seed drives dataset synthesis and model initialization.
	Seed uint64
}

// FastPreset is small enough for go test benchmarks: a few dozen users per
// department and compact autoencoders. The paper's qualitative shape
// (ACOBE ≻ Base-FF ≻ Baseline, ablation ordering) is preserved.
func FastPreset() Preset {
	return Preset{
		Name:         "fast",
		UsersPerDept: 40,
		Deviation:    deviation.DefaultConfig(),
		AEConfig: func(dim int) autoencoder.Config {
			cfg := autoencoder.FastConfig(dim)
			cfg.Hidden = []int{64, 32}
			cfg.Epochs = 50
			cfg.EarlyStopDelta = 0.002
			cfg.Patience = 3
			return cfg
		},
		TrainStride: 3,
		N:           3,
		Seed:        42,
	}
}

// PaperPreset mirrors the paper's scale: ~929 users, encoder
// 512-256-128-64, ω=30. Expect hours of CPU time.
func PaperPreset() Preset {
	return Preset{
		Name:         "paper",
		UsersPerDept: 233,
		Deviation:    deviation.DefaultConfig(),
		AEConfig:     autoencoder.PaperConfig,
		TrainStride:  2,
		N:            3,
		Seed:         42,
	}
}

// TinyPreset is for unit tests only: a handful of users, tiny models.
func TinyPreset() Preset {
	p := FastPreset()
	p.Name = "tiny"
	p.UsersPerDept = 10
	p.AEConfig = func(dim int) autoencoder.Config {
		cfg := autoencoder.FastConfig(dim)
		cfg.Hidden = []int{64, 32}
		cfg.Epochs = 40
		cfg.EarlyStopDelta = 0.002
		cfg.Patience = 3
		return cfg
	}
	p.TrainStride = 3
	return p
}

// CERTData is one synthesized CERT-style dataset with its extracted
// measurement tables, ready for any model variant.
type CERTData struct {
	Preset Preset
	// Gen is the generator that synthesized the dataset; nil when the
	// dataset was loaded from CSV instead.
	Gen       *cert.Generator
	Scenarios []cert.Scenario
	SpanStart cert.Day
	SpanEnd   cert.Day
	Users     []cert.User
	UserIDs   []string
	UserGroup []int // department index per user
	Table     *features.Table
	Group     *features.Table

	// ScenarioUser maps scenario name → insider user ID.
	ScenarioUser map[string]string
	// LabeledDays maps user ID → set of ground-truth abnormal days.
	LabeledDays map[string]map[cert.Day]bool

	mu     sync.Mutex
	fields map[deviation.Config]*fieldPair
}

type fieldPair struct {
	ind   *deviation.Field
	group *deviation.Field
}

// BuildCERTData synthesizes the dataset for the preset and extracts the
// full measurement table plus per-department group averages.
func BuildCERTData(p Preset) (*CERTData, error) {
	cfg := cert.SmallConfig(p.UsersPerDept)
	cfg.Seed = p.Seed
	return BuildCERTDataFrom(p, cfg)
}

// BuildCERTDataFrom is BuildCERTData with an explicit generator config.
func BuildCERTDataFrom(p Preset, cfg cert.Config) (*CERTData, error) {
	gen, err := cert.New(cfg)
	if err != nil {
		return nil, fmt.Errorf("experiment: %w", err)
	}
	start, end := gen.Span()
	data, err := extractCERTData(p, gen.Users(), cfg.Departments, start, end, gen.Stream, gen.Scenarios(), gen.Labels())
	if err != nil {
		return nil, err
	}
	data.Gen = gen
	return data, nil
}

// extractCERTData streams a CERT-style dataset over [start, end] through
// the extractor into the full measurement table plus per-department group
// averages (depts in group order), and indexes its scenarios and labels.
func extractCERTData(p Preset, users []cert.User, depts []string, start, end cert.Day,
	stream func(func(cert.Day, []cert.Event) error) error, scenarios []cert.Scenario, labels []cert.Label) (*CERTData, error) {
	deptIdx := make(map[string]int, len(depts))
	for i, d := range depts {
		deptIdx[d] = i
	}
	ids := make([]string, len(users))
	membership := make([]int, len(users))
	for i, u := range users {
		ids[i] = u.ID
		membership[i] = deptIdx[u.Department]
	}
	x, err := features.NewExtractor(ids, start, end)
	if err != nil {
		return nil, fmt.Errorf("experiment: %w", err)
	}
	if err := stream(x.Consume); err != nil {
		return nil, fmt.Errorf("experiment: %w", err)
	}
	group, err := x.Table().GroupTable(depts, membership)
	if err != nil {
		return nil, fmt.Errorf("experiment: %w", err)
	}
	data := &CERTData{
		Preset:       p,
		Scenarios:    scenarios,
		SpanStart:    start,
		SpanEnd:      end,
		Users:        users,
		UserIDs:      ids,
		UserGroup:    membership,
		Table:        x.Table(),
		Group:        group,
		ScenarioUser: make(map[string]string),
		LabeledDays:  make(map[string]map[cert.Day]bool),
		fields:       make(map[deviation.Config]*fieldPair),
	}
	for _, sc := range scenarios {
		data.ScenarioUser[sc.Name()] = sc.UserID()
	}
	data.addLabels(labels)
	return data, nil
}

// addLabels indexes ground-truth labels by user.
func (d *CERTData) addLabels(labels []cert.Label) {
	for _, l := range labels {
		set, ok := d.LabeledDays[l.User]
		if !ok {
			set = make(map[cert.Day]bool)
			d.LabeledDays[l.User] = set
		}
		set[l.Day] = true
	}
}

// Span returns the dataset's inclusive day range.
func (d *CERTData) Span() (cert.Day, cert.Day) { return d.SpanStart, d.SpanEnd }

// ScenarioByName returns the scenario with the given name, or nil.
func (d *CERTData) ScenarioByName(name string) cert.Scenario {
	for _, sc := range d.Scenarios {
		if sc.Name() == name {
			return sc
		}
	}
	return nil
}

// BuildCERTDataFromStored replays a CSV-loaded dataset through the
// extraction pipeline. Scenario metadata (names, insiders, windows) is
// reconstructed from the stored ground-truth labels.
func BuildCERTDataFromStored(p Preset, ds *cert.StoredDataset) (*CERTData, error) {
	if len(ds.Users) == 0 {
		return nil, fmt.Errorf("experiment: stored dataset has no users")
	}
	days := ds.Days()
	if len(days) == 0 {
		return nil, fmt.Errorf("experiment: stored dataset has no events")
	}
	var depts []string
	seen := make(map[string]bool)
	for _, u := range ds.Users {
		if !seen[u.Department] {
			seen[u.Department] = true
			depts = append(depts, u.Department)
		}
	}
	return extractCERTData(p, ds.Users, depts, days[0], days[len(days)-1], ds.Replay, cert.ScenariosFromLabels(ds.Labels), ds.Labels)
}

// Fields lazily computes (and caches) the individual and group deviation
// fields for a deviation configuration.
func (d *CERTData) Fields(cfg deviation.Config) (ind, group *deviation.Field, err error) {
	d.mu.Lock()
	defer d.mu.Unlock()
	if fp, ok := d.fields[cfg]; ok {
		return fp.ind, fp.group, nil
	}
	indF, err := deviation.ComputeField(d.Table, cfg)
	if err != nil {
		return nil, nil, fmt.Errorf("experiment: individual field: %w", err)
	}
	grpF, err := deviation.ComputeField(d.Group, cfg)
	if err != nil {
		return nil, nil, fmt.Errorf("experiment: group field: %w", err)
	}
	d.fields[cfg] = &fieldPair{ind: indF, group: grpF}
	return indF, grpF, nil
}

// IsScenarioUser reports whether id is one of the injected insiders.
func (d *CERTData) IsScenarioUser(id string) bool {
	for _, u := range d.ScenarioUser {
		if u == id {
			return true
		}
	}
	return false
}

// ModelKind enumerates the evaluation's model variants.
type ModelKind int

// The six model variants compared in Figures 5 and 6.
const (
	ModelACOBE ModelKind = iota + 1
	ModelNoGroup
	ModelAllInOne
	ModelOneDay
	ModelBaseline
	ModelBaseFF
)

// String implements fmt.Stringer.
func (k ModelKind) String() string {
	switch k {
	case ModelACOBE:
		return "ACOBE"
	case ModelNoGroup:
		return "No-Group"
	case ModelAllInOne:
		return "All-in-1"
	case ModelOneDay:
		return "1-Day"
	case ModelBaseline:
		return "Baseline"
	case ModelBaseFF:
		return "Base-FF"
	default:
		return fmt.Sprintf("ModelKind(%d)", int(k))
	}
}

// AllModelKinds lists every variant in figure order.
func AllModelKinds() []ModelKind {
	return []ModelKind{ModelACOBE, ModelNoGroup, ModelAllInOne, ModelOneDay, ModelBaseline, ModelBaseFF}
}

// ScenarioRun is the outcome of one (model, scenario) evaluation.
type ScenarioRun struct {
	Model    ModelKind
	Scenario string
	Insider  string

	// Split days.
	TrainFrom, TrainTo cert.Day
	TestFrom, TestTo   cert.Day

	// Series holds per-aspect, per-user, per-day anomaly scores over the
	// testing window.
	Series []*core.ScoreSeries
	// List is the critic's ordered investigation list.
	List []core.Ranked
	// Items carries (priority, label) per user for metric pooling, with
	// other scenarios' insiders excluded.
	Items []metrics.Item
}

// RunScenario trains the model variant on the scenario's training period
// and evaluates it on the testing period.
func RunScenario(data *CERTData, kind ModelKind, sc cert.Scenario) (*ScenarioRun, error) {
	dsStart, dsEnd := data.Span()
	trainFrom, trainTo, testFrom, testTo, err := cert.SplitForScenario(sc, dsStart, dsEnd)
	if err != nil {
		return nil, fmt.Errorf("experiment: %w", err)
	}
	run := &ScenarioRun{
		Model:     kind,
		Scenario:  sc.Name(),
		Insider:   sc.UserID(),
		TrainFrom: trainFrom,
		TrainTo:   trainTo,
		TestFrom:  testFrom,
		TestTo:    testTo,
	}

	series, list, err := runVariant(data, kind, trainFrom, trainTo, testFrom, testTo)
	if err != nil {
		return nil, fmt.Errorf("experiment: run %v on %s: %w", kind, sc.Name(), err)
	}
	run.Series = series
	run.List = list
	run.Items = itemsFromList(data, list, sc.UserID())
	return run, nil
}

// runVariant builds the detector of one model variant — compound
// deviation rows for ACOBE and its No-Group and All-in-1 ablations,
// single-day rows for 1-Day, Baseline and Base-FF — trains it on
// [trainFrom, trainTo] and scores and ranks [testFrom, testTo].
func runVariant(data *CERTData, kind ModelKind, trainFrom, trainTo, testFrom, testTo cert.Day) ([]*core.ScoreSeries, []core.Ranked, error) {
	det, err := newVariantDetector(data, kind, trainFrom, trainTo)
	if err != nil {
		return nil, nil, err
	}
	if _, err := det.Fit(context.Background(), trainFrom, trainTo); err != nil {
		return nil, nil, err
	}
	series, err := det.ScoreBatch(context.Background(), testFrom, testTo)
	if err != nil {
		return nil, nil, err
	}
	return series, det.RankSeries(series), nil
}

// newVariantDetector builds the untrained detector of one model variant.
func newVariantDetector(data *CERTData, kind ModelKind, trainFrom, trainTo cert.Day) (*core.Detector, error) {
	p := data.Preset
	var single baseline.Config
	switch kind {
	case ModelACOBE, ModelNoGroup, ModelAllInOne:
		cfg := core.Config{
			Deviation:    p.Deviation,
			Aspects:      features.ACOBEAspects(),
			IncludeGroup: kind != ModelNoGroup,
			AEConfig:     p.AEConfig,
			TrainStride:  p.TrainStride,
			N:            p.N,
			Seed:         p.Seed,
		}
		if kind == ModelAllInOne {
			cfg.Aspects = []features.Aspect{features.AllInOneAspect()}
		}
		ind, group, err := data.Fields(cfg.Deviation)
		if err != nil {
			return nil, err
		}
		return core.NewDetector(cfg, ind, group, data.UserGroup)
	case ModelOneDay:
		single = baseline.NewOneDayConfig()
	case ModelBaseline:
		single = baseline.NewBaselineConfig()
	case ModelBaseFF:
		single = baseline.NewBaseFFConfig()
	default:
		return nil, fmt.Errorf("experiment: unknown model kind %v", kind)
	}
	single.AEConfig = p.AEConfig
	single.N = p.N
	return baseline.New(single, data.Table, data.Group, data.UserGroup, trainFrom, trainTo)
}

// itemsFromList converts an investigation list into metric items for one
// scenario: the scenario's insider is the only positive, and the other
// scenarios' insiders (normal in this window, anomalous elsewhere) are
// excluded from pooling.
func itemsFromList(data *CERTData, list []core.Ranked, insider string) []metrics.Item {
	items := make([]metrics.Item, 0, len(list))
	for _, r := range list {
		if r.User != insider && data.IsScenarioUser(r.User) {
			continue
		}
		items = append(items, metrics.Item{
			User:     r.User,
			Priority: r.Priority,
			Positive: r.User == insider,
		})
	}
	return items
}

// ReRankRuns re-runs the critic with a different vote count N over runs'
// existing score series — Figure 6(c)'s N sweep needs no retraining.
func ReRankRuns(data *CERTData, runs []*ScenarioRun, n int) ([]*ScenarioRun, error) {
	out := make([]*ScenarioRun, 0, len(runs))
	for _, r := range runs {
		if len(r.Series) == 0 {
			return nil, fmt.Errorf("experiment: run %s/%v has no score series", r.Scenario, r.Model)
		}
		clone := *r
		clone.List = core.RankDayBlocks(data.UserIDs, core.DayBlocks(r.Series), n)
		clone.Items = itemsFromList(data, clone.List, r.Insider)
		out = append(out, &clone)
	}
	return out, nil
}

// PoolItems concatenates the items of several runs (the paper pools the
// four scenarios' detections into one ROC / PR evaluation). User names are
// prefixed with the scenario to keep them distinct.
func PoolItems(runs []*ScenarioRun) []metrics.Item {
	var out []metrics.Item
	for _, r := range runs {
		for _, it := range r.Items {
			it.User = r.Scenario + "/" + it.User
			out = append(out, it)
		}
	}
	return out
}
