package core

import (
	"context"
	"errors"
	"fmt"
	"sort"
	"sync"
	"sync/atomic"

	"acobe/internal/autoencoder"
	"acobe/internal/cert"
	"acobe/internal/deviation"
	"acobe/internal/features"
	"acobe/internal/mathx"
	"acobe/internal/nn"
)

// ErrEmptyRange is wrapped by the scoring entry points when [from, to],
// clamped to the scoreable days, holds no day: from > to, or a window
// wholly before the first or after the last matrix day.
var ErrEmptyRange = errors.New("core: empty scoring range")

// Config parameterizes a Detector.
type Config struct {
	// Deviation holds the compound-matrix parameters (ω, 𝒟, Δ, ε,
	// weighting).
	Deviation deviation.Config
	// Aspects are the behavioral aspects; one autoencoder is trained per
	// aspect (the paper's ensemble).
	Aspects []features.Aspect
	// IncludeGroup embeds group (department-average) deviations into each
	// matrix; disabling it reproduces the "No-Group" ablation.
	IncludeGroup bool
	// AEConfig builds the autoencoder configuration for a given flattened
	// input width. Defaults to autoencoder.FastConfig.
	AEConfig func(inputDim int) autoencoder.Config
	// TrainStride samples every k-th day when building training matrices
	// (1 = every day). Larger strides cut training cost with little
	// effect, since adjacent matrices overlap in 𝒟-1 of 𝒟 columns.
	TrainStride int
	// N is the critic's vote count (paper default: 3).
	N int
	// Aggregate reduces a user's daily scores over a testing window to one
	// per-aspect anomaly score. Defaults to AggregateRelativeMax.
	Aggregate func(*ScoreSeries) []float64
	// Seed differentiates model initialization between aspects.
	Seed uint64
}

// DefaultConfig returns the paper's CERT-evaluation configuration with
// fast-sized autoencoders.
func DefaultConfig() Config {
	return Config{
		Deviation:    deviation.DefaultConfig(),
		Aspects:      features.ACOBEAspects(),
		IncludeGroup: true,
		AEConfig:     autoencoder.FastConfig,
		TrainStride:  2,
		N:            3,
		Seed:         7,
	}
}

// aspectModel couples one aspect's matrix builder with its autoencoder.
type aspectModel struct {
	aspect  features.Aspect
	builder *deviation.Builder
	aeCfg   autoencoder.Config
	ae      *autoencoder.Autoencoder

	// scorers recycles (Scorer, batch matrix) pairs across Score calls so
	// steady-state scoring reuses the forward buffers instead of
	// reallocating them every call. Entries are bound to the model they
	// were created for; getScorer discards entries whose model pointer no
	// longer matches (LoadModels replaces ae in place).
	scorers sync.Pool
}

// pooledScorer is one reusable scoring context: a Scorer (forward
// buffers) plus the batch matrix rows are staged in, tagged with the
// model it is bound to.
type pooledScorer struct {
	ae     *autoencoder.Autoencoder
	scorer *autoencoder.Scorer
	batch  *nn.Matrix
}

// getScorer returns a scoring context for the current model, reusing a
// pooled one when its binding is still valid.
func (m *aspectModel) getScorer() *pooledScorer {
	if ps, ok := m.scorers.Get().(*pooledScorer); ok && ps.ae == m.ae {
		return ps
	}
	return &pooledScorer{ae: m.ae, scorer: m.ae.NewScorer(), batch: &nn.Matrix{}}
}

// Detector is a trained ACOBE instance for one group of users.
type Detector struct {
	cfg    Config
	users  []string
	models []*aspectModel
}

// NewDetector wires up matrix builders over the individual deviation field
// and (when cfg.IncludeGroup) the group field, whose "users" are groups
// (e.g. per-department averages); userGroup[u] selects user u's group row.
// The fields must be computed from tables sharing the same day span.
func NewDetector(cfg Config, ind, group *deviation.Field, userGroup []int) (*Detector, error) {
	if len(cfg.Aspects) == 0 {
		return nil, fmt.Errorf("core: no aspects configured")
	}
	if cfg.AEConfig == nil {
		cfg.AEConfig = autoencoder.FastConfig
	}
	if cfg.TrainStride < 1 {
		cfg.TrainStride = 1
	}
	if cfg.N < 1 {
		cfg.N = 1
	}
	if !cfg.IncludeGroup {
		group = nil
	} else if group == nil {
		return nil, fmt.Errorf("core: IncludeGroup set but no group field given")
	}
	det := &Detector{cfg: cfg, users: ind.Table().Users()}
	for i, aspect := range cfg.Aspects {
		b, err := deviation.NewBuilder(ind, group, userGroup, aspect)
		if err != nil {
			return nil, fmt.Errorf("core: aspect %s: %w", aspect.Name, err)
		}
		aeCfg := cfg.AEConfig(b.Dim())
		aeCfg.Seed = cfg.Seed + uint64(i)*0x9e37
		ae, err := autoencoder.New(aeCfg)
		if err != nil {
			return nil, fmt.Errorf("core: aspect %s: %w", aspect.Name, err)
		}
		det.models = append(det.models, &aspectModel{aspect: aspect, builder: b, aeCfg: aeCfg, ae: ae})
	}
	return det, nil
}

// Rebind returns a detector that shares this detector's trained
// autoencoders but builds its matrices over the given deviation fields.
// The fields must have the same configuration and user geometry as the
// originals (same flattened matrix width); training state is shared, not
// copied — the models are read-only during inference, so the original and
// the rebound detector may score concurrently. The serving layer uses this
// to repoint a trained detector at a freshly published view generation
// without serializing and reloading weights.
func (d *Detector) Rebind(ind, group *deviation.Field, userGroup []int) (*Detector, error) {
	cfg := d.cfg
	if !cfg.IncludeGroup {
		group = nil
	} else if group == nil {
		return nil, fmt.Errorf("core: IncludeGroup set but no group field given")
	}
	out := &Detector{cfg: cfg, users: ind.Table().Users()}
	for _, m := range d.models {
		b, err := deviation.NewBuilder(ind, group, userGroup, m.aspect)
		if err != nil {
			return nil, fmt.Errorf("core: rebind aspect %s: %w", m.aspect.Name, err)
		}
		if b.Dim() != m.builder.Dim() {
			return nil, fmt.Errorf("core: rebind aspect %s: matrix width %d, model expects %d",
				m.aspect.Name, b.Dim(), m.builder.Dim())
		}
		out.models = append(out.models, &aspectModel{aspect: m.aspect, builder: b, aeCfg: m.aeCfg, ae: m.ae})
	}
	return out, nil
}

// Users returns the user IDs the detector scores, in index order.
func (d *Detector) Users() []string { return d.users }

// Aspects returns the configured aspect names in model order.
func (d *Detector) Aspects() []string {
	out := make([]string, len(d.models))
	for i, m := range d.models {
		out[i] = m.aspect.Name
	}
	return out
}

// FirstMatrixDay returns the earliest scoreable day.
func (d *Detector) FirstMatrixDay() cert.Day { return d.models[0].builder.FirstMatrixDay() }

// Fit trains every aspect's autoencoder on all users' compound matrices
// over [from, to] (assumed to be the normal/training period). It returns
// the per-aspect final losses keyed by aspect name.
//
// Aspects train concurrently, each goroutine holding one slot of the
// nn worker budget so that ensemble-level and matmul-level parallelism
// together stay near GOMAXPROCS. Each aspect's training is fully
// deterministic (own seed, own RNG), so the losses are bit-identical at
// any budget — a budget of one slot trains the aspects one at a time.
//
// Cancelling ctx aborts training mid-epoch: every aspect's trainer checks
// the context between batches, returns promptly, and Fit reports the
// context's error after all aspect goroutines have exited (no leaks).
func (d *Detector) Fit(ctx context.Context, from, to cert.Day) (map[string]float64, error) {
	losses := make(map[string]float64, len(d.models))
	var (
		wg       sync.WaitGroup
		mu       sync.Mutex
		firstErr error
	)
	for _, m := range d.models {
		wg.Add(1)
		go func(m *aspectModel) {
			defer wg.Done()
			nn.AcquireWorker()
			defer nn.ReleaseWorker()
			loss, err := d.fitAspect(ctx, m, from, to)
			mu.Lock()
			defer mu.Unlock()
			if err != nil {
				if firstErr == nil {
					firstErr = err
				}
				return
			}
			losses[m.aspect.Name] = loss
		}(m)
	}
	wg.Wait()
	if firstErr != nil {
		return nil, firstErr
	}
	return losses, nil
}

// fitAspect builds one aspect's training matrix — every user's compound
// matrices over the (clamped, strided) day range written directly into one
// preallocated nn.Matrix — and trains the aspect's autoencoder on it.
func (d *Detector) fitAspect(ctx context.Context, m *aspectModel, from, to cert.Day) (float64, error) {
	if err := ctx.Err(); err != nil {
		return 0, fmt.Errorf("core: fit aspect %s: %w", m.aspect.Name, err)
	}
	f, t, perUser := m.builder.ClampRange(from, to, d.cfg.TrainStride)
	if perUser == 0 || len(d.users) == 0 {
		return 0, fmt.Errorf("core: no training matrices for aspect %s in %v..%v", m.aspect.Name, from, to)
	}
	stride := cert.Day(d.cfg.TrainStride)
	if stride < 1 {
		stride = 1
	}
	samples := nn.NewMatrix(perUser*len(d.users), m.builder.Dim())
	row := 0
	for u := range d.users {
		for day := f; day <= t; day += stride {
			if err := m.builder.BuildInto(u, day, samples.Row(row)); err != nil {
				return 0, fmt.Errorf("core: build training matrices (%s): %w", m.aspect.Name, err)
			}
			row++
		}
	}
	loss, err := m.ae.Fit(ctx, samples)
	if err != nil {
		return 0, fmt.Errorf("core: fit aspect %s: %w", m.aspect.Name, err)
	}
	return loss, nil
}

// ScoreSeries holds per-day anomaly scores for every user in one aspect:
// Scores[u][i] is user u's reconstruction error on day From+i.
type ScoreSeries struct {
	Aspect string
	From   cert.Day
	To     cert.Day
	Scores [][]float64

	// flat is the backing array the per-user Scores rows are views of,
	// retained so ScoreBatchInto can recycle it.
	flat []float64
}

// DaysCovered returns the number of scored days.
func (s *ScoreSeries) DaysCovered() int { return int(s.To-s.From) + 1 }

// Score computes per-day anomaly scores for every user and aspect over
// [from, to] (clamped to the valid matrix range). It is ScoreBatch under
// its historical name.
func (d *Detector) Score(ctx context.Context, from, to cert.Day) ([]*ScoreSeries, error) {
	return d.ScoreBatch(ctx, from, to)
}

// ScoreBatch computes per-day anomaly scores for every user and aspect
// over [from, to] (clamped to the valid matrix range) by stacking all
// users' flattened deviation matrices into one rows×features batch per
// aspect and running whole chunks of it through the model at once — one
// GEMM per layer per chunk instead of a forward pass per user. Rows are
// scored independently by the network, so the scores are bit-identical to
// looping Score over single users. Cancelling ctx stops the scoring
// workers between chunks and returns the context's error.
func (d *Detector) ScoreBatch(ctx context.Context, from, to cert.Day) ([]*ScoreSeries, error) {
	return d.ScoreBatchInto(ctx, nil, from, to)
}

// ScoreBatchInto is ScoreBatch with caller-owned result storage: it
// recycles the series and score buffers already in dst (growing them as
// needed), fills dst[i] with aspect i's series, and returns the slice.
// dst may be nil or shorter than the aspect count. A steady-state caller
// that feeds each call's result back in — a daemon scoring the same
// window shape on every rank — allocates nothing.
func (d *Detector) ScoreBatchInto(ctx context.Context, dst []*ScoreSeries, from, to cert.Day) ([]*ScoreSeries, error) {
	if cap(dst) < len(d.models) {
		grown := make([]*ScoreSeries, len(d.models))
		copy(grown, dst)
		dst = grown
	}
	dst = dst[:len(d.models)]
	for i, m := range d.models {
		s, err := d.scoreAspect(ctx, m, from, to, dst[i])
		if err != nil {
			return nil, err
		}
		dst[i] = s
	}
	return dst, nil
}

// scoreAspect scores one aspect over the clamped window, reusing the
// buffers of a previous series when one is passed in.
func (d *Detector) scoreAspect(ctx context.Context, m *aspectModel, from, to cert.Day, reuse *ScoreSeries) (*ScoreSeries, error) {
	if from < m.builder.FirstMatrixDay() {
		from = m.builder.FirstMatrixDay()
	}
	if to > m.builder.LastMatrixDay() {
		to = m.builder.LastMatrixDay()
	}
	if to < from {
		return nil, fmt.Errorf("%w for aspect %s", ErrEmptyRange, m.aspect.Name)
	}
	series := reuse
	if series == nil {
		series = &ScoreSeries{}
	}
	series.Aspect = m.aspect.Name
	series.From, series.To = from, to
	days := int(to-from) + 1
	users := len(d.users)
	if cap(series.Scores) < users {
		series.Scores = make([][]float64, users)
	}
	series.Scores = series.Scores[:users]
	if users == 0 {
		return series, nil
	}

	// Batched scoring: flatten the (user, day) grid into one row space of
	// users×days rows — row r is user r/days on day from+r%days — and score
	// it in fixed-size stacked chunks, each one batch through the fused
	// forward pass. All scores land in one flat buffer; the per-user series
	// are subslice views of it. The model is read-only during inference and
	// every scoring context (batch matrix + forward buffers) is
	// worker-owned and pooled across calls, so steady-state scoring with a
	// recycled series allocates nothing at all: the single-worker chunk
	// loop below spawns no goroutines and builds no closures.
	total := users * days
	if cap(series.flat) < total {
		series.flat = make([]float64, total)
	}
	flat := series.flat[:total]
	numChunks := (total + scoreChunkRows - 1) / scoreChunkRows

	workers := nn.EffectiveWorkers()
	if workers > numChunks {
		workers = numChunks
	}
	var err error
	if workers <= 1 {
		err = m.scoreChunksSerial(ctx, from, days, flat)
	} else {
		err = m.scoreChunksParallel(ctx, from, days, flat, workers)
	}
	if err != nil {
		return nil, fmt.Errorf("core: score aspect %s: %w", m.aspect.Name, err)
	}
	for u := 0; u < users; u++ {
		series.Scores[u] = flat[u*days : (u+1)*days]
	}
	return series, nil
}

// scoreChunkRows is the stacked-batch height of one scoring chunk.
const scoreChunkRows = 512

// scoreChunk scores the chunk of grid rows starting at lo — row r is user
// r/days on day from+r%days — through ps, straight into flat.
func (m *aspectModel) scoreChunk(ps *pooledScorer, from cert.Day, days, lo int, flat []float64) error {
	hi := min(lo+scoreChunkRows, len(flat))
	ps.batch.Reshape(hi-lo, m.builder.Dim())
	for r := lo; r < hi; r++ {
		if err := m.builder.BuildInto(r/days, from+cert.Day(r%days), ps.batch.Row(r-lo)); err != nil {
			return err
		}
	}
	// The dst slice is zero-length with exactly hi-lo capacity, so
	// ScoreBatch appends the chunk's scores straight into flat[lo:hi]
	// without allocating.
	_, err := ps.scorer.ScoreBatch(ps.batch, flat[lo:lo:hi])
	return err
}

// scoreChunksSerial runs the chunk loop on the calling goroutine with no
// closures or atomics, keeping single-worker steady-state scoring
// allocation-free.
func (m *aspectModel) scoreChunksSerial(ctx context.Context, from cert.Day, days int, flat []float64) error {
	ps := m.getScorer()
	defer m.scorers.Put(ps)
	for lo := 0; lo < len(flat); lo += scoreChunkRows {
		if err := ctx.Err(); err != nil {
			return err
		}
		if err := m.scoreChunk(ps, from, days, lo, flat); err != nil {
			return err
		}
	}
	return nil
}

// scoreChunksParallel fans the chunk loop out over the nn worker budget.
// Chunks are claimed atomically: one worker runs inline, extra workers
// spawn only while the budget has free slots.
func (m *aspectModel) scoreChunksParallel(ctx context.Context, from cert.Day, days int, flat []float64, workers int) error {
	var (
		next     atomic.Int64
		firstErr atomic.Value
	)
	process := func() {
		ps := m.getScorer()
		defer m.scorers.Put(ps)
		for {
			lo := (int(next.Add(1)) - 1) * scoreChunkRows
			if lo >= len(flat) || firstErr.Load() != nil {
				return
			}
			err := ctx.Err()
			if err == nil {
				err = m.scoreChunk(ps, from, days, lo, flat)
			}
			if err != nil {
				firstErr.CompareAndSwap(nil, err)
				return
			}
		}
	}

	var wg sync.WaitGroup
	for w := 1; w < workers && nn.TryAcquireWorker(); w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			defer nn.ReleaseWorker()
			process()
		}()
	}
	process()
	wg.Wait()
	if err := firstErr.Load(); err != nil {
		return err.(error)
	}
	return nil
}

// AggregateMax reduces each user's daily scores to their maximum — the
// simplest per-aspect anomaly score for ranking over a testing window.
func AggregateMax(s *ScoreSeries) []float64 {
	out := make([]float64, len(s.Scores))
	for u, days := range s.Scores {
		m := 0.0
		for _, v := range days {
			if v > m {
				m = v
			}
		}
		out[u] = m
	}
	return out
}

// AggregateRelativeMax reduces each user's daily scores to the maximum of
// score divided by that day's population median. This captures the paper's
// Figure-5 reading — "on some dates the anomaly score stands out on top of
// all users" — and is robust to days when the whole population scores high
// (busy days, environmental changes): standing out matters, absolute
// magnitude does not.
func AggregateRelativeMax(s *ScoreSeries) []float64 {
	days := s.DaysCovered()
	medians := make([]float64, days)
	// One scratch column for every day: filled, sorted in place, read once.
	col := make([]float64, len(s.Scores))
	for d := 0; d < days; d++ {
		for u := range s.Scores {
			col[u] = s.Scores[u][d]
		}
		sort.Float64s(col)
		medians[d] = mathx.PercentileSorted(col, 50)
		if medians[d] <= 0 {
			medians[d] = 1e-12
		}
	}
	out := make([]float64, len(s.Scores))
	for u, series := range s.Scores {
		m := 0.0
		for d, v := range series {
			if r := v / medians[d]; r > m {
				m = r
			}
		}
		out[u] = m
	}
	return out
}

// Investigate scores a testing window and ranks it: Score, then
// RankSeries.
func (d *Detector) Investigate(ctx context.Context, from, to cert.Day) ([]Ranked, error) {
	series, err := d.Score(ctx, from, to)
	if err != nil {
		return nil, err
	}
	return d.RankSeries(series), nil
}

// RankSeries is the scoring-free half of Investigate: it reduces each
// aspect's series (one per aspect, in model order, as Score returns them)
// with the configured aggregate and runs the critic over the result. The
// series are only read; the returned list shares nothing with them.
func (d *Detector) RankSeries(series []*ScoreSeries) []Ranked {
	agg := d.cfg.Aggregate
	if agg == nil {
		agg = AggregateRelativeMax
	}
	scoresByAspect := make([][]float64, len(series))
	for i, s := range series {
		scoresByAspect[i] = agg(s)
	}
	return Critic(d.users, scoresByAspect, d.cfg.N)
}
