// Package acobe is the public API of this repository's ACOBE
// implementation (anomaly detection of compound behavioral deviations via
// a per-aspect autoencoder ensemble). It is the only supported import
// path: everything under internal/ may change without notice, while this
// package keeps a stable, option-based surface.
//
// The shape of a typical batch use:
//
//	tbl, _ := acobe.NewTable(userIDs, acobe.TrackedFeatures(), acobe.NumTimeframes, start, end)
//	// ... fill tbl from audit logs (tbl.Add), or use an extractor ...
//	det, _ := acobe.NewDetector(tbl,
//		acobe.WithGroups(deptNames, membership),
//		acobe.WithSeed(42),
//	)
//	det.Fit(ctx, trainFrom, trainTo)
//	list, _ := det.Rank(ctx, testFrom, testTo)
//
// Fit, ScoreBatch and Rank honor context cancellation: training checks the
// context between batches, scoring between users, and both return an
// error satisfying errors.Is(err, acobe.ErrCanceled) promptly after the
// context ends. For continuous (online) scoring, run the acobed daemon
// instead of embedding this package — see cmd/acobed.
package acobe

import (
	"context"
	"errors"
	"fmt"
	"io"
	"time"

	"acobe/internal/autoencoder"
	"acobe/internal/cert"
	"acobe/internal/core"
	"acobe/internal/deviation"
	"acobe/internal/features"
)

// Core vocabulary, aliased from the internal packages so that values flow
// freely between the facade and internal call sites. External importers
// see them as acobe.Day, acobe.Ranked, etc.
type (
	// Day is a calendar day counted from the dataset epoch.
	Day = cert.Day
	// Aspect names one behavioral aspect and the features it spans; the
	// ensemble trains one autoencoder per aspect.
	Aspect = features.Aspect
	// Table is the dense (user, feature, time-frame, day) measurement
	// store detectors are built from.
	Table = features.Table
	// Field is a precomputed deviation field (z-scores of measurements
	// against each user's sliding history).
	Field = deviation.Field
	// DeviationConfig carries the paper's ω, 𝒟, Δ, ε and weighting knobs.
	DeviationConfig = deviation.Config
	// ModelConfig sizes one aspect's autoencoder.
	ModelConfig = autoencoder.Config
	// ScoreSeries holds per-day anomaly scores for every user in one
	// aspect.
	ScoreSeries = core.ScoreSeries
	// DayBlock is one scored day in column form, every aspect's scores and
	// their population medians, as DayBlocks builds it and RankBlocks
	// reads it.
	DayBlock = core.DayBlock
	// Ranked is one row of the ordered investigation list.
	Ranked = core.Ranked
	// AdvancedRanked is a row of the §VII-B waveform critic's list.
	AdvancedRanked = core.AdvancedRanked
	// WaveformConfig parameterizes the waveform critic.
	WaveformConfig = core.WaveformConfig
)

// NumTimeframes is the number of per-day time frames the paper uses (work
// hours and off hours).
const NumTimeframes = cert.NumTimeframes

// Typed failures callers can test with errors.Is.
var (
	// ErrNotFitted is returned by ScoreBatch and Rank before a successful Fit
	// (or LoadModels).
	ErrNotFitted = errors.New("acobe: detector not fitted")
	// ErrCanceled wraps context cancellation and deadline expiry from
	// Fit, ScoreBatch and Rank.
	ErrCanceled = errors.New("acobe: operation canceled")
	// ErrEmptyRange is wrapped by ScoreBatch and Rank when [from, to], clamped
	// to the scoreable days, holds no day: from > to, or a window wholly
	// before FirstScoreableDay or wholly after the last day of the table.
	ErrEmptyRange = core.ErrEmptyRange
)

// ParseDay parses a YYYY-MM-DD day.
func ParseDay(s string) (Day, error) { return cert.ParseDay(s) }

// DayOf returns the day containing the instant t.
func DayOf(t time.Time) Day { return cert.DayOf(t) }

// NewTable allocates a zeroed measurement table over users × featureNames
// × frames for the inclusive day span. Grow it forward day by day with
// Table.EnsureDay when measurements arrive online.
func NewTable(users, featureNames []string, frames int, start, end Day) (*Table, error) {
	return features.NewTable(users, featureNames, frames, start, end)
}

// TrackedFeatures returns every CERT feature the built-in extractor can
// fill: the 16 fine-grained ACOBE features, the 10 coarse baseline
// counters and the e-mail send count, 27 in all. The offline pipeline and
// daemon.NewCERTIngestor fill this list; the daemon's default ingestor
// fills only the union of its configured aspects' features (AspectsOf).
func TrackedFeatures() []string { return features.TrackedFeatures() }

// ACOBEAspects returns the paper's three CERT aspects (device, file,
// HTTP).
func ACOBEAspects() []Aspect { return features.ACOBEAspects() }

// AllInOneAspect merges every ACOBE feature into a single aspect (the
// paper's All-in-1 ablation).
func AllInOneAspect() Aspect { return features.AllInOneAspect() }

// DefaultDeviationConfig returns the paper's CERT-evaluation deviation
// parameters (ω=30, 𝒟=14, Δ=3, ε=1, weighted).
func DefaultDeviationConfig() DeviationConfig { return deviation.DefaultConfig() }

// FastModelConfig sizes a compact autoencoder for an input width —
// suitable for tests and medium datasets.
func FastModelConfig(inputDim int) ModelConfig { return autoencoder.FastConfig(inputDim) }

// PaperModelConfig mirrors the paper's 512-256-128-64 encoder.
func PaperModelConfig(inputDim int) ModelConfig { return autoencoder.PaperConfig(inputDim) }

// ComputeDeviations derives the deviation field of a measurement table in
// one batch pass. Use it with NewDetectorFromFields when you manage group
// tables yourself; NewDetector does both steps for you.
func ComputeDeviations(tbl *Table, cfg DeviationConfig) (*Field, error) {
	return deviation.ComputeField(tbl, cfg)
}

// Critic implements the paper's Algorithm 1: per-aspect rank voting with
// the N-th best rank as priority. scoresByAspect[a][u] is user u's
// aggregated anomaly score in aspect a. Within an aspect the highest score
// ranks first and equal scores (+0 and -0 among them) rank in user order;
// a NaN score ranks after every number, so it moves no other user.
func Critic(users []string, scoresByAspect [][]float64, n int) []Ranked {
	return core.Critic(users, scoresByAspect, n)
}

// AggregateMax reduces a score series to each user's maximum daily score.
func AggregateMax(s *ScoreSeries) []float64 { return core.AggregateMax(s) }

// AggregateRelativeMax reduces a score series to each user's maximum
// score relative to the day's population median (robust to globally busy
// days).
func AggregateRelativeMax(s *ScoreSeries) []float64 { return core.AggregateRelativeMax(s) }

// DayBlocks transposes ScoreBatch's series into one DayBlock per day,
// taking each aspect column's median once. A block never changes, so a
// caller that ranks overlapping windows can keep the blocks and rank them
// again with RankBlocks.
func DayBlocks(series []*ScoreSeries) []DayBlock { return core.DayBlocks(series) }

// AdvancedCritic ranks with the §VII-B waveform critic: recent-spike and
// waveform-shape analysis on top of the rank voting.
func AdvancedCritic(users []string, series []*ScoreSeries, n int, cfg WaveformConfig) []AdvancedRanked {
	return core.AdvancedCritic(users, series, n, cfg)
}

// DefaultWaveformConfig returns the waveform critic's default thresholds.
func DefaultWaveformConfig() WaveformConfig { return core.DefaultWaveformConfig() }

// options collects the functional-option state for NewDetector.
type options struct {
	cfg        core.Config
	groupNames []string
	membership []int
	errs       []error
}

// Option customizes a Detector. Options validate lazily: errors surface
// from NewDetector / NewDetectorFromFields.
type Option func(*options)

func defaultOptions() *options {
	return &options{cfg: core.DefaultConfig()}
}

// WithAspects replaces the behavioral aspects (default: the paper's three
// CERT aspects).
func WithAspects(aspects ...Aspect) Option {
	return func(o *options) {
		if len(aspects) == 0 {
			o.errs = append(o.errs, errors.New("WithAspects: no aspects"))
			return
		}
		o.cfg.Aspects = append([]Aspect(nil), aspects...)
	}
}

// WithGroupDeviations toggles embedding group-average deviations into each
// matrix (default true; false reproduces the No-Group ablation and lifts
// the WithGroups requirement).
func WithGroupDeviations(on bool) Option {
	return func(o *options) { o.cfg.IncludeGroup = on }
}

// WithGroups declares the peer groups: names lists the groups and
// membership[u] is the group index of user u, which must index names.
// Required when group deviations are enabled and the detector is built
// from a table.
func WithGroups(names []string, membership []int) Option {
	return func(o *options) {
		o.groupNames = append([]string(nil), names...)
		o.membership = append([]int(nil), membership...)
	}
}

// WithSeed sets the model-initialization seed (default 7). Training is
// fully deterministic per seed.
func WithSeed(seed uint64) Option {
	return func(o *options) { o.cfg.Seed = seed }
}

// WithVotes sets the critic's vote count N (default 3): a user's priority
// is their N-th best per-aspect rank.
func WithVotes(n int) Option {
	return func(o *options) {
		if n < 1 {
			o.errs = append(o.errs, fmt.Errorf("WithVotes: n must be ≥ 1, got %d", n))
			return
		}
		o.cfg.N = n
	}
}

// WithTrainStride samples every k-th day when building training matrices
// (default 2; adjacent matrices overlap in all but one column, so larger
// strides cut training cost with little effect).
func WithTrainStride(k int) Option {
	return func(o *options) {
		if k < 1 {
			o.errs = append(o.errs, fmt.Errorf("WithTrainStride: stride must be ≥ 1, got %d", k))
			return
		}
		o.cfg.TrainStride = k
	}
}

// WithDeviationConfig replaces the deviation configuration: ω, 𝒟, Δ, ε
// and weighting (default DefaultDeviationConfig). To change one knob,
// start from DefaultDeviationConfig and set that field.
func WithDeviationConfig(cfg DeviationConfig) Option {
	return func(o *options) { o.cfg.Deviation = cfg }
}

// WithModelConfig supplies the autoencoder configuration per input width
// (default FastModelConfig).
func WithModelConfig(f func(inputDim int) ModelConfig) Option {
	return func(o *options) { o.cfg.AEConfig = f }
}

// AspectsOf returns the aspects a detector built with opts trains on, in
// ensemble order: the paper's three CERT aspects unless WithAspects
// replaces them. Their features, in order and without duplicates, are
// what such a detector reads of a measurement table. An option error is
// left for NewDetector to report.
func AspectsOf(opts ...Option) []Aspect {
	o := defaultOptions()
	for _, opt := range opts {
		opt(o)
	}
	return o.cfg.Aspects
}

// Detector is a configured (and, after Fit, trained) ACOBE instance.
// Methods are safe for concurrent use once Fit has returned; Fit itself
// must not race with ScoreBatch or Rank.
type Detector struct {
	det    *core.Detector
	fitted bool
}

// NewDetector derives deviation fields from the measurement table and
// wires up the per-aspect ensemble. When group deviations are enabled
// (the default) WithGroups must declare the peer groups; the group table
// of per-group average measurements is built internally.
func NewDetector(tbl *Table, opts ...Option) (*Detector, error) {
	o := defaultOptions()
	for _, opt := range opts {
		opt(o)
	}
	if err := errors.Join(o.errs...); err != nil {
		return nil, fmt.Errorf("acobe: %w", err)
	}
	var (
		group     *Field
		userGroup []int
	)
	if o.cfg.IncludeGroup {
		if len(o.groupNames) == 0 {
			return nil, errors.New("acobe: group deviations enabled but no groups declared — add WithGroups(names, membership) or WithGroupDeviations(false)")
		}
		gt, err := tbl.GroupTable(o.groupNames, o.membership)
		if err != nil {
			return nil, fmt.Errorf("acobe: group table: %w", err)
		}
		group, err = deviation.ComputeField(gt, o.cfg.Deviation)
		if err != nil {
			return nil, fmt.Errorf("acobe: group deviations: %w", err)
		}
		userGroup = o.membership
	}
	ind, err := deviation.ComputeField(tbl, o.cfg.Deviation)
	if err != nil {
		return nil, fmt.Errorf("acobe: deviations: %w", err)
	}
	return newFromFields(o, ind, group, userGroup)
}

// NewDetectorFromFields wires up the ensemble over precomputed deviation
// fields — the entry point for callers that maintain fields incrementally
// (e.g. the serving daemon) or share them across detectors. group may be
// nil only with WithGroupDeviations(false); userGroup[u] selects user u's
// row in the group field. The deviation configuration is taken from ind.
func NewDetectorFromFields(ind, group *Field, userGroup []int, opts ...Option) (*Detector, error) {
	o := defaultOptions()
	for _, opt := range opts {
		opt(o)
	}
	if err := errors.Join(o.errs...); err != nil {
		return nil, fmt.Errorf("acobe: %w", err)
	}
	o.cfg.Deviation = ind.Config()
	return newFromFields(o, ind, group, userGroup)
}

func newFromFields(o *options, ind, group *Field, userGroup []int) (*Detector, error) {
	det, err := core.NewDetector(o.cfg, ind, group, userGroup)
	if err != nil {
		return nil, fmt.Errorf("acobe: %w", err)
	}
	return &Detector{det: det}, nil
}

// Rebind returns a detector that shares this detector's trained models
// but builds its compound matrices over the given deviation fields (which
// must match the originals' configuration and matrix width). No weights
// are copied or retrained: the rebound detector is fitted exactly when the
// receiver is, and both may score concurrently. Online servers use this to
// repoint a trained detector at a newer snapshot of the deviation state.
func (d *Detector) Rebind(ind, group *Field, userGroup []int) (*Detector, error) {
	det, err := d.det.Rebind(ind, group, userGroup)
	if err != nil {
		return nil, fmt.Errorf("acobe: %w", err)
	}
	return &Detector{det: det, fitted: d.fitted}, nil
}

// wrapErr maps context cancellation onto ErrCanceled so callers can test
// one sentinel regardless of which layer noticed the cancellation.
func wrapErr(err error) error {
	if err == nil {
		return nil
	}
	if errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded) {
		return fmt.Errorf("%w: %w", ErrCanceled, err)
	}
	return err
}

// Users returns the user IDs the detector scores, in index order.
func (d *Detector) Users() []string { return d.det.Users() }

// AspectNames returns the configured aspect names in ensemble order.
func (d *Detector) AspectNames() []string { return d.det.Aspects() }

// FirstScoreableDay returns the earliest day a compound matrix (and hence
// a score) exists for: table start + ω-1 history days + 𝒟-1 matrix days.
func (d *Detector) FirstScoreableDay() Day { return d.det.FirstMatrixDay() }

// Fitted reports whether the detector holds trained models.
func (d *Detector) Fitted() bool { return d.fitted }

// Fit trains every aspect's autoencoder on all users' compound matrices
// over the training days [from, to], concurrently across aspects under
// the global worker budget. It returns per-aspect final losses keyed by
// aspect name. Cancelling ctx aborts training between batches and returns
// an error wrapping ErrCanceled.
func (d *Detector) Fit(ctx context.Context, from, to Day) (map[string]float64, error) {
	losses, err := d.det.Fit(ctx, from, to)
	if err != nil {
		return nil, wrapErr(err)
	}
	d.fitted = true
	return losses, nil
}

// ScoreBatch computes per-day anomaly scores for every user and aspect
// over [from, to] (clamped to the scoreable range), stacking all users'
// flattened deviation matrices into one batch per aspect and scoring
// whole chunks of it in single forward passes, every aspect's chunks
// spread over the cores at once. Scores are bit-identical to scoring
// users one at a time; only the throughput differs.
func (d *Detector) ScoreBatch(ctx context.Context, from, to Day) ([]*ScoreSeries, error) {
	if !d.fitted {
		return nil, ErrNotFitted
	}
	series, err := d.det.ScoreBatch(ctx, from, to)
	return series, wrapErr(err)
}

// ScoreBatchInto is ScoreBatch with caller-owned result storage: the
// series and score buffers already in dst are recycled (grown as needed)
// and the filled slice is returned. A caller that feeds each result back
// in — scoring the same window shape repeatedly — allocates nothing in
// steady state on one core; on more, spreading the chunks over them
// costs a few small allocations per call. dst may be nil, which makes it
// equivalent to ScoreBatch.
func (d *Detector) ScoreBatchInto(ctx context.Context, dst []*ScoreSeries, from, to Day) ([]*ScoreSeries, error) {
	if !d.fitted {
		return nil, ErrNotFitted
	}
	series, err := d.det.ScoreBatchInto(ctx, dst, from, to)
	return series, wrapErr(err)
}

// Rank scores [from, to], aggregates each user's daily scores per aspect,
// and runs the critic, returning the ordered investigation list (most
// suspicious first). It is ScoreBatch followed by RankSeries.
func (d *Detector) Rank(ctx context.Context, from, to Day) ([]Ranked, error) {
	if !d.fitted {
		return nil, ErrNotFitted
	}
	list, err := d.det.Investigate(ctx, from, to)
	return list, wrapErr(err)
}

// RankSeries is the scoring-free half of Rank: it aggregates series the
// caller already holds — one per aspect in ensemble order, all over the
// same days, as ScoreBatch returns them — with AggregateRelativeMax and
// runs the critic. The series are only read; the returned list is freshly
// allocated. A caller that wants another aggregate applies it to
// ScoreBatch's series itself and hands the rows to Critic.
func (d *Detector) RankSeries(series []*ScoreSeries) []Ranked {
	return d.det.RankSeries(series)
}

// RankBlocks is RankSeries over the window whose days are blocks
// (DayBlocks of this detector's scores, in day order), and returns the
// same list bit for bit. It costs one division per user-day plus the
// critic; the blocks are only read.
func (d *Detector) RankBlocks(blocks []DayBlock) []Ranked {
	return d.det.RankBlocks(blocks)
}

// SaveModels writes the trained weights of every aspect model.
func (d *Detector) SaveModels(w io.Writer) error {
	if !d.fitted {
		return ErrNotFitted
	}
	return d.det.SaveModels(w)
}

// LoadModels restores trained weights written by SaveModels into a
// detector with the same configuration, marking it fitted.
func (d *Detector) LoadModels(r io.Reader) error {
	if err := d.det.LoadModels(r); err != nil {
		return err
	}
	d.fitted = true
	return nil
}
