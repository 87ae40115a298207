package core

import (
	"cmp"
	"context"
	"errors"
	"fmt"
	"slices"
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

// RowSource builds one aspect's model input: BuildInto writes the row of
// user index u on day d into dst, which must have length Dim(). Rows exist
// for every day in FirstMatrixDay..LastMatrixDay. A *deviation.Builder is
// the paper's source (compound deviation matrices); the single-day
// comparison models of internal/baseline are another.
type RowSource interface {
	Dim() int
	FirstMatrixDay() cert.Day
	LastMatrixDay() cert.Day
	BuildInto(u int, d cert.Day, dst []float64) error
}

// aspectModel couples one aspect's row source with its autoencoder.
type aspectModel struct {
	aspect features.Aspect
	rows   RowSource
	aeCfg  autoencoder.Config
	ae     *autoencoder.Autoencoder

	// scorers recycles (Scorer, batch matrix) pairs across ScoreBatch
	// calls so steady-state scoring reuses the forward buffers instead of
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

// Detector is a trained ACOBE instance for one group of users — or, over
// other row sources, one of the models the paper compares it with.
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
	rows, err := deviationRows(cfg, ind, group, userGroup)
	if err != nil {
		return nil, err
	}
	return NewRowDetector(cfg, ind.Table().Users(), rows)
}

// deviationRows builds one compound-matrix builder per configured aspect.
func deviationRows(cfg Config, ind, group *deviation.Field, userGroup []int) ([]RowSource, error) {
	if !cfg.IncludeGroup {
		group = nil
	} else if group == nil {
		return nil, fmt.Errorf("core: IncludeGroup set but no group field given")
	}
	rows := make([]RowSource, len(cfg.Aspects))
	for i, aspect := range cfg.Aspects {
		b, err := deviation.NewBuilder(ind, group, userGroup, aspect)
		if err != nil {
			return nil, fmt.Errorf("core: aspect %s: %w", aspect.Name, err)
		}
		rows[i] = b
	}
	return rows, nil
}

// NewRowDetector is NewDetector over rows built elsewhere: rows[i] is
// cfg.Aspects[i]'s row source and users names the row sources' user
// indices. The rows embody cfg.Deviation and cfg.IncludeGroup, which only
// Rebind reads.
func NewRowDetector(cfg Config, users []string, rows []RowSource) (*Detector, error) {
	if len(cfg.Aspects) == 0 {
		return nil, fmt.Errorf("core: no aspects configured")
	}
	if len(rows) != len(cfg.Aspects) {
		return nil, fmt.Errorf("core: %d row sources for %d aspects", len(rows), len(cfg.Aspects))
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
	det := &Detector{cfg: cfg, users: users}
	for i, aspect := range cfg.Aspects {
		aeCfg := cfg.AEConfig(rows[i].Dim())
		aeCfg.Seed = cfg.Seed + uint64(i)*0x9e37
		ae, err := autoencoder.New(aeCfg)
		if err != nil {
			return nil, fmt.Errorf("core: aspect %s: %w", aspect.Name, err)
		}
		det.models = append(det.models, &aspectModel{aspect: aspect, rows: rows[i], aeCfg: aeCfg, ae: ae})
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
	rows, err := deviationRows(d.cfg, ind, group, userGroup)
	if err != nil {
		return nil, fmt.Errorf("core: rebind: %w", err)
	}
	out := &Detector{cfg: d.cfg, users: ind.Table().Users()}
	for i, m := range d.models {
		if rows[i].Dim() != m.rows.Dim() {
			return nil, fmt.Errorf("core: rebind aspect %s: matrix width %d, model expects %d",
				m.aspect.Name, rows[i].Dim(), m.rows.Dim())
		}
		out.models = append(out.models, &aspectModel{aspect: m.aspect, rows: rows[i], aeCfg: m.aeCfg, ae: m.ae})
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
func (d *Detector) FirstMatrixDay() cert.Day { return d.models[0].rows.FirstMatrixDay() }

// Fit trains every aspect's autoencoder on all users' rows over
// [from, to] (assumed to be the normal/training period). It returns
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

// fitAspect builds one aspect's training matrix — every user's rows over
// the (clamped, strided) day range written directly into one preallocated
// nn.Matrix — and trains the aspect's autoencoder on it.
func (d *Detector) fitAspect(ctx context.Context, m *aspectModel, from, to cert.Day) (float64, error) {
	if err := ctx.Err(); err != nil {
		return 0, fmt.Errorf("core: fit aspect %s: %w", m.aspect.Name, err)
	}
	f, t, perUser := clampRange(m.rows, from, to, d.cfg.TrainStride)
	if perUser == 0 || len(d.users) == 0 {
		return 0, fmt.Errorf("core: no training matrices for aspect %s in %v..%v", m.aspect.Name, from, to)
	}
	samples := nn.NewMatrix(perUser*len(d.users), m.rows.Dim())
	stride, row := cert.Day(d.cfg.TrainStride), 0
	for u := range d.users {
		for day := f; day <= t; day += stride {
			if err := m.rows.BuildInto(u, day, samples.Row(row)); err != nil {
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

	// flat is the backing array the per-user Scores rows are views of —
	// score i is grid row i, user i/days on day From+i%days — retained so
	// ScoreBatchInto can recycle it.
	flat []float64
}

// DaysCovered returns the number of scored days.
func (s *ScoreSeries) DaysCovered() int { return int(s.To-s.From) + 1 }

// ScoreBatch computes per-day anomaly scores for every user and aspect
// over [from, to] (clamped to the valid matrix range) by stacking all
// users' rows (flattened deviation matrices) into one rows×features batch per
// aspect and running whole chunks of it through the model at once — one
// GEMM per layer per chunk instead of a forward pass per user. Every
// aspect's chunks are scored as one grid across the nn worker budget.
// Rows are scored independently by the network, so the scores are
// bit-identical to scoring each user on its own, at any budget.
// Cancelling ctx stops the scoring workers between chunks and returns the
// context's error.
func (d *Detector) ScoreBatch(ctx context.Context, from, to cert.Day) ([]*ScoreSeries, error) {
	return d.ScoreBatchInto(ctx, nil, from, to)
}

// ScoreBatchInto is ScoreBatch with caller-owned result storage: it
// recycles the series and score buffers already in dst (growing them as
// needed), fills dst[i] with aspect i's series, and returns the slice.
// dst may be nil or shorter than the aspect count. A steady-state caller
// that feeds each call's result back in — a daemon scoring the same
// window shape on every rank — allocates nothing at a budget of one
// worker.
func (d *Detector) ScoreBatchInto(ctx context.Context, dst []*ScoreSeries, from, to cert.Day) ([]*ScoreSeries, error) {
	if cap(dst) < len(d.models) {
		grown := make([]*ScoreSeries, len(d.models))
		copy(grown, dst)
		dst = grown
	}
	dst = dst[:len(d.models)]
	tasks := 0
	for i, m := range d.models {
		s, err := d.prepareSeries(m, from, to, dst[i])
		if err != nil {
			return nil, err
		}
		dst[i] = s
		tasks += (len(s.flat) + scoreChunkRows - 1) / scoreChunkRows
	}
	var err error
	if workers := min(nn.EffectiveWorkers(), tasks); workers <= 1 {
		err = d.scoreSerial(ctx, dst)
	} else {
		err = d.scoreGrid(ctx, dst, tasks, workers)
	}
	if err != nil {
		return nil, err
	}
	return dst, nil
}

// clampRange clamps [from, to] to rows' days and returns the clamped
// bounds with the number of stride-spaced days they hold (0 when the
// clamped range is empty). stride must be at least 1.
func clampRange(rows RowSource, from, to cert.Day, stride int) (cert.Day, cert.Day, int) {
	from = max(from, rows.FirstMatrixDay())
	to = min(to, rows.LastMatrixDay())
	if to < from {
		return from, to, 0
	}
	return from, to, int(to-from)/stride + 1
}

// prepareSeries clamps [from, to] to m's scoreable days and sizes a series
// for the window, reusing the buffers of a previous series when one is
// passed in: one flat buffer of users×days grid rows, with each user's
// Scores row a view of it.
func (d *Detector) prepareSeries(m *aspectModel, from, to cert.Day, reuse *ScoreSeries) (*ScoreSeries, error) {
	from, to, days := clampRange(m.rows, from, to, 1)
	if days == 0 {
		return nil, fmt.Errorf("%w for aspect %s", ErrEmptyRange, m.aspect.Name)
	}
	series := reuse
	if series == nil {
		series = &ScoreSeries{}
	}
	series.Aspect = m.aspect.Name
	series.From, series.To = from, to
	users := len(d.users)
	if cap(series.Scores) < users {
		series.Scores = make([][]float64, users)
	}
	series.Scores = series.Scores[:users]
	if cap(series.flat) < users*days {
		series.flat = make([]float64, users*days)
	}
	series.flat = series.flat[:users*days]
	for u := range series.Scores {
		series.Scores[u] = series.flat[u*days : (u+1)*days]
	}
	return series, nil
}

// scoreChunkRows is the stacked-batch height of one scoring chunk.
const scoreChunkRows = 512

// scoreChunk scores the chunk of s's grid rows starting at lo through ps,
// each chunk one batch through the fused forward pass, straight into
// s.flat. It checks ctx first, so a cancelled call stops between chunks.
func (m *aspectModel) scoreChunk(ctx context.Context, ps *pooledScorer, s *ScoreSeries, lo int) error {
	err := ctx.Err()
	days, hi := s.DaysCovered(), min(lo+scoreChunkRows, len(s.flat))
	if err == nil {
		ps.batch.Reshape(hi-lo, m.rows.Dim())
		for r := lo; r < hi && err == nil; r++ {
			err = m.rows.BuildInto(r/days, s.From+cert.Day(r%days), ps.batch.Row(r-lo))
		}
	}
	if err == nil {
		// The dst slice is zero-length with exactly hi-lo capacity, so
		// ScoreBatch appends the chunk's scores straight into flat[lo:hi]
		// without allocating.
		_, err = ps.scorer.ScoreBatch(ps.batch, s.flat[lo:lo:hi])
	}
	if err != nil {
		return fmt.Errorf("core: score aspect %s: %w", m.aspect.Name, err)
	}
	return nil
}

// scoreSerial scores the grid on the calling goroutine, aspect by aspect,
// with no closures or atomics. The model is read-only during inference
// and every scoring context (batch matrix + forward buffers) is pooled
// across calls, so one-worker steady-state scoring with recycled series
// allocates nothing at all.
func (d *Detector) scoreSerial(ctx context.Context, series []*ScoreSeries) error {
	for i, m := range d.models {
		ps := m.getScorer()
		for lo := 0; lo < len(series[i].flat); lo += scoreChunkRows {
			if err := m.scoreChunk(ctx, ps, series[i], lo); err != nil {
				m.scorers.Put(ps)
				return err
			}
		}
		m.scorers.Put(ps)
	}
	return nil
}

// gridTask is one cell of the scoring grid: aspect a's chunk of rows from
// lo.
type gridTask struct{ a, lo int }

// scoreGrid fans every (aspect, chunk) cell of the window out over the nn
// worker budget at once, so a window of one chunk per aspect still uses
// every core. Cells are listed widest aspect first, so the narrow aspect's
// cheap chunks fill the tail, and claimed atomically. The caller holds a
// slot while it works if one is free, and every extra worker holds one,
// so the GEMMs inside a chunk take their inline path instead of sharding
// on top of the grid. Each worker keeps one pooled scorer per aspect it
// touches and hands them back when the grid is drained.
func (d *Detector) scoreGrid(ctx context.Context, series []*ScoreSeries, tasks, workers int) error {
	order := make([]int, len(d.models))
	for a := range order {
		order[a] = a
	}
	slices.SortStableFunc(order, func(a, b int) int {
		return cmp.Compare(d.models[b].rows.Dim(), d.models[a].rows.Dim())
	})
	grid := make([]gridTask, 0, tasks)
	for _, a := range order {
		for lo := 0; lo < len(series[a].flat); lo += scoreChunkRows {
			grid = append(grid, gridTask{a, lo})
		}
	}

	var (
		next     atomic.Int64
		firstErr firstError
	)
	process := func() {
		scorers := make([]*pooledScorer, len(d.models))
		for firstErr.get() == nil {
			i := int(next.Add(1)) - 1
			if i >= len(grid) {
				break
			}
			t, m := grid[i], d.models[grid[i].a]
			if scorers[t.a] == nil {
				scorers[t.a] = m.getScorer()
			}
			if err := m.scoreChunk(ctx, scorers[t.a], series[t.a], t.lo); err != nil {
				firstErr.set(err)
			}
		}
		for a, ps := range scorers {
			if ps != nil {
				d.models[a].scorers.Put(ps)
			}
		}
	}

	if nn.TryAcquireWorker() {
		defer nn.ReleaseWorker()
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
	return firstErr.get()
}

// firstError keeps the first error any of a set of workers reports. It
// holds a pointer to the interface, not the interface in an atomic.Value,
// so errors of different concrete types — a matrix build failure beside a
// wrapped context error — can race to be first without the store
// panicking.
type firstError struct{ p atomic.Pointer[error] }

func (f *firstError) set(err error) { f.p.CompareAndSwap(nil, &err) }

func (f *firstError) get() error {
	if p := f.p.Load(); p != nil {
		return *p
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
	sc := rankScratches.Get().(*rankScratch)
	out := sc.relativeMax(make([]float64, len(s.Scores)), s)
	rankScratches.Put(sc)
	return out
}

// DayMedian is the population median the relative-max aggregate divides a
// day's scores by: col sorted in place, its 50th percentile
// (mathx.PercentileSorted, the interpolation of mathx.Percentile), floored
// at 1e-12 so an all-zero day divides by a tiny positive number, not zero.
func DayMedian(col []float64) float64 {
	sort.Float64s(col)
	m := mathx.PercentileSorted(col, 50)
	if m <= 0 {
		m = 1e-12
	}
	return m
}

// maxRatio is one day of the relative-max aggregate: it raises out[u] to
// col[u]/median wherever that is larger. A NaN ratio never is, so a NaN
// score drops out. Run over a window's days in ascending order from a
// zeroed out, it performs, per user, exactly the operations of the
// user-major formulation, so the result is the same bit for bit.
func maxRatio(out, col []float64, median float64) {
	col = col[:len(out)]
	for u, v := range col {
		if r := v / median; r > out[u] {
			out[u] = r
		}
	}
}

// relativeMax is AggregateRelativeMax into out (one entry per user): it
// gathers each day's column into sc's scratch and runs the column kernel
// a served rank runs over its memoised DayBlocks.
func (sc *rankScratch) relativeMax(out []float64, s *ScoreSeries) []float64 {
	clear(out)
	sc.col, sc.sortCol = resize(sc.col, len(s.Scores)), resize(sc.sortCol, len(s.Scores))
	col := sc.col
	for d := range s.DaysCovered() {
		for u, row := range s.Scores {
			col[u] = row[d]
		}
		copy(sc.sortCol, col)
		maxRatio(out, col, DayMedian(sc.sortCol))
	}
	return out
}

// DayBlock is one scored day in the column form the relative-max aggregate
// reads. For A aspects and U users, block[a*U+u] is user u's score in
// aspect a, and block[A*U+a] is aspect a's DayMedian that day. A block is
// as immutable as the scores it holds, so a server may keep it, median
// and all, for as long as the model that scored it serves.
type DayBlock []float64

// DayBlocks transposes series — one per aspect, in model order, all over
// the same days, as ScoreBatch returns them — into one DayBlock per day,
// taking each column's median once.
func DayBlocks(series []*ScoreSeries) []DayBlock {
	if len(series) == 0 {
		return nil
	}
	aspects, users, days := len(series), len(series[0].Scores), series[0].DaysCovered()
	sorted := make([]float64, users)
	blocks := make([]DayBlock, days)
	for i := range blocks {
		block := make(DayBlock, aspects*(users+1))
		for a, s := range series {
			col := block[a*users : (a+1)*users]
			for u, row := range s.Scores {
				col[u] = row[i]
			}
			copy(sorted, col)
			block[aspects*users+a] = DayMedian(sorted)
		}
		blocks[i] = block
	}
	return blocks
}

// Investigate scores a testing window and ranks it: ScoreBatch, then
// RankSeries.
func (d *Detector) Investigate(ctx context.Context, from, to cert.Day) ([]Ranked, error) {
	series, err := d.ScoreBatch(ctx, from, to)
	if err != nil {
		return nil, err
	}
	return d.RankSeries(series), nil
}

// RankSeries is the scoring-free half of Investigate: it reduces each
// aspect's series (one per aspect, in model order, as ScoreBatch returns
// them) with the relative-max aggregate and runs the critic over the
// result. The series are only read; the returned list shares nothing with
// them.
func (d *Detector) RankSeries(series []*ScoreSeries) []Ranked {
	sc := rankScratches.Get().(*rankScratch)
	defer rankScratches.Put(sc)
	// The critic keeps none of the scores, so the aggregate writes them
	// into scratch rows.
	users := len(d.users)
	sc.byAspect, sc.rows = resize(sc.byAspect, len(series)), resize(sc.rows, len(series)*users)
	for i, s := range series {
		sc.byAspect[i] = sc.relativeMax(sc.rows[i*users:(i+1)*users], s)
	}
	return sc.critic(d.users, sc.byAspect, d.cfg.N)
}

// RankBlocks is RankSeries over a window held as DayBlocks — one per day,
// every aspect of the ensemble in each — and returns the same list bit for
// bit: RankDayBlocks with the detector's users and vote count.
func (d *Detector) RankBlocks(blocks []DayBlock) []Ranked {
	return RankDayBlocks(d.users, blocks, d.cfg.N)
}

// RankDayBlocks ranks a window held as DayBlocks with the relative-max
// aggregate, read from the blocks' columns and stored medians in place —
// one division per user-day — then Critic with n votes. It returns what
// AggregateRelativeMax and Critic return over the same scores, bit for
// bit.
func RankDayBlocks(users []string, blocks []DayBlock, n int) []Ranked {
	if len(blocks) == 0 {
		return nil
	}
	aspects := len(blocks[0]) / (len(users) + 1)
	sc := rankScratches.Get().(*rankScratch)
	sc.byAspect, sc.rows = resize(sc.byAspect, aspects), resize(sc.rows, aspects*len(users))
	for a := range aspects {
		sc.byAspect[a] = relativeMaxBlocks(sc.rows[a*len(users):(a+1)*len(users)], blocks, a, aspects)
	}
	list := sc.critic(users, sc.byAspect, n)
	rankScratches.Put(sc)
	return list
}

// relativeMaxBlocks is AggregateRelativeMax of aspect a (of aspects) over
// a window's blocks, into out (one entry per user).
func relativeMaxBlocks(out []float64, blocks []DayBlock, a, aspects int) []float64 {
	users := len(out)
	clear(out)
	for _, b := range blocks {
		maxRatio(out, b[a*users:(a+1)*users], b[aspects*users+a])
	}
	return out
}
