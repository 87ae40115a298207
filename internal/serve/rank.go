package serve

import (
	"context"
	"fmt"
	"sync"
	"sync/atomic"

	"acobe/internal/cert"
	"acobe/internal/obs"
	"acobe/pkg/acobe"
)

// scoreMemo is one trained model's fill-once store of score columns: per
// day, every aspect's score of every user. A user-day's score is a
// function of the model and the 𝒟 deviation days ending on that day, and
// published headers only ever extend, so a column scored through one
// published state is the column every later state of the same model would
// produce. The memo therefore lives exactly as long as the model: a day
// close carries the pointer forward into the state it publishes, a retrain
// swap starts an empty one, and there is no other invalidation. Only
// Server.rank fills or reads it.
type scoreMemo struct {
	first   cert.Day // the model's first scoreable day
	users   int
	aspects []string // aspect names in ensemble order

	// days is the index readers load with no lock: (*days)[d-first] is day
	// d's block — aspect a's column is block[a*users:(a+1)*users] — or nil
	// while the day is unscored. The slice and every block are immutable
	// once stored; a fill builds a longer copy under mu and stores that.
	days atomic.Pointer[[][]float64]
	mu   sync.Mutex // serializes fills, so a day is scored once
}

func newScoreMemo(det *acobe.Detector) *scoreMemo {
	m := &scoreMemo{first: det.FirstScoreableDay(), users: len(det.Users()), aspects: det.AspectNames()}
	m.days.Store(new([][]float64))
	return m
}

// window returns the blocks of [from, to] from idx when every one of them
// is scored, else nil.
func (m *scoreMemo) window(idx [][]float64, from, to cert.Day) [][]float64 {
	lo, hi := int(from-m.first), int(to-m.first)
	if hi >= len(idx) {
		return nil
	}
	for _, block := range idx[lo : hi+1] {
		if block == nil {
			return nil
		}
	}
	return idx[lo : hi+1]
}

// columns returns the blocks of days [from, to] (already clamped to det's
// scoreable range, non-empty), scoring the missing ones through det. The
// hit path is one atomic load. Misses are filled under the mutex — two
// rankers that need the same new day score it once — one ScoreBatch per
// maximal run of missing days; a fill that fails or is cancelled stores
// nothing, so the next caller fills. Any state's detector may fill: they
// share the model, and their headers agree on every day both cover.
func (m *scoreMemo) columns(ctx context.Context, det *acobe.Detector, from, to cert.Day, o *obs.Observer) ([][]float64, error) {
	width := (int(to-from) + 1) * len(m.aspects)
	if win := m.window(*m.days.Load(), from, to); win != nil {
		o.AddRankColumnsReused(width)
		return win, nil
	}

	start := o.Clock()
	m.mu.Lock()
	defer m.mu.Unlock()
	cur := *m.days.Load()
	next := make([][]float64, max(len(cur), int(to-m.first)+1))
	copy(next, cur)
	scored := 0
	for d := from; d <= to; d++ {
		if next[d-m.first] != nil {
			continue
		}
		end := d
		for end < to && next[end+1-m.first] == nil {
			end++
		}
		series, err := det.ScoreBatch(ctx, d, end)
		if err != nil {
			return nil, err
		}
		for i := range next[d-m.first : end+1-m.first] {
			block := make([]float64, len(m.aspects)*m.users)
			for a, s := range series {
				col := block[a*m.users : (a+1)*m.users]
				for u, row := range s.Scores {
					col[u] = row[i]
				}
			}
			next[int(d-m.first)+i] = block
			scored += len(m.aspects)
		}
		d = end
	}
	if scored > 0 {
		m.days.Store(&next)
		o.ObserveRankFill(start, scored)
	}
	o.AddRankColumnsReused(width - scored)
	return m.window(next, from, to), nil
}

// bytes is the memory the memo's columns hold (0 on a nil memo).
func (m *scoreMemo) bytes() int64 {
	if m == nil {
		return 0
	}
	var blocks int64
	for _, block := range *m.days.Load() {
		if block != nil {
			blocks++
		}
	}
	return blocks * int64(len(m.aspects)) * int64(m.users) * 8
}

// rankBuf is the user-major view of a window's columns that the
// aggregate and the critic read: one series per aspect, every Scores row a
// view of flat. Ranks recycle them through Server.rankBufs.
type rankBuf struct {
	series []*acobe.ScoreSeries
	flat   []float64
}

// assemble transposes the blocks of days from.. into the buffer's series.
func (b *rankBuf) assemble(m *scoreMemo, from cert.Day, blocks [][]float64) []*acobe.ScoreSeries {
	days, users := len(blocks), m.users
	need := len(m.aspects) * users * days
	if cap(b.flat) < need {
		b.flat = make([]float64, need)
	}
	b.flat = b.flat[:need]
	for len(b.series) < len(m.aspects) {
		b.series = append(b.series, &acobe.ScoreSeries{})
	}
	for a, name := range m.aspects {
		s := b.series[a]
		s.Aspect, s.From, s.To = name, from, from+cert.Day(days-1)
		if cap(s.Scores) < users {
			s.Scores = make([][]float64, users)
		}
		s.Scores = s.Scores[:users]
		flat := b.flat[a*users*days : (a+1)*users*days]
		for u := range s.Scores {
			s.Scores[u] = flat[u*days : (u+1)*days]
		}
		for i, block := range blocks {
			for u, v := range block[a*users : (a+1)*users] {
				flat[u*days+i] = v
			}
		}
	}
	return b.series[:len(m.aspects)]
}

// Rank returns the ordered investigation list of [from, to] under the
// current ensemble. It loads the published state once and holds no lock:
// the detector it finds is bound to headers no day close can change, so a
// concurrent close cannot shift the window mid-query. The ranking runs
// over the one global field, so its order (including tie handling) is
// independent of the shard count.
//
// Each user-day is scored once per trained model: the scores come from the
// state's scoreMemo, and only days no earlier rank asked for since the
// last retrain are run through the autoencoders. A repeated window costs
// the aggregate and the critic; the window after a day close costs one day
// of scoring on top. The list is the one Detector().Rank returns for the
// same state, bit for bit.
func (s *Server) Rank(ctx context.Context, from, to cert.Day) ([]acobe.Ranked, error) {
	ranked, _, err := s.rank(ctx, from, to)
	return ranked, err
}

// rank is Rank that also returns the published state it served from, for
// callers that label the list with that state's detector.
func (s *Server) rank(ctx context.Context, from, to cert.Day) ([]acobe.Ranked, *published, error) {
	start := s.obs.Clock()
	p := s.pub.Load()
	if p.det == nil {
		return nil, nil, ErrNoModel
	}
	// Clamp against this state's own header before the memo is consulted:
	// a rank served from an older state returns the list that state
	// defines even when the shared memo already holds newer days.
	from, to = max(from, p.scores.first), min(to, p.ind.EndDay())
	if to < from {
		return nil, nil, fmt.Errorf("serve: rank: %w", acobe.ErrEmptyRange)
	}
	blocks, err := p.scores.columns(ctx, p.det, from, to, s.obs)
	if err != nil {
		return nil, nil, err
	}
	buf := s.rankBufs.Get().(*rankBuf)
	ranked := p.det.RankSeries(buf.assemble(p.scores, from, blocks))
	s.rankBufs.Put(buf)
	s.obs.ObserveRank(start)
	return ranked, p, nil
}

// ClosedThrough returns the last closed (fully extracted and published)
// day.
func (s *Server) ClosedThrough() cert.Day { return s.pub.Load().closedThrough }

// Detector returns the currently serving detector, or nil before the
// first successful retrain.
func (s *Server) Detector() *acobe.Detector { return s.pub.Load().det }
