package serve

import (
	"context"

	"acobe/internal/cert"
	"acobe/pkg/acobe"
)

// Rank scores [from, to] with the current ensemble and returns the
// ordered investigation list. It loads the published state once and holds
// no lock: the detector it finds is bound to headers no day close can
// change, so a concurrent close cannot shift the window mid-query. The
// ranking runs over the one global field, so its order (including tie
// handling) is independent of the shard count.
func (s *Server) Rank(ctx context.Context, from, to cert.Day) ([]acobe.Ranked, error) {
	start := s.obs.Clock()
	det := s.pub.Load().det
	if det == nil {
		return nil, ErrNoModel
	}
	ranked, err := det.Rank(ctx, from, to)
	if err == nil {
		s.obs.ObserveRank(start)
	}
	return ranked, err
}

// ClosedThrough returns the last closed (fully extracted and published)
// day.
func (s *Server) ClosedThrough() cert.Day { return s.pub.Load().closedThrough }

// Detector returns the currently serving detector, or nil before the
// first successful retrain.
func (s *Server) Detector() *acobe.Detector { return s.pub.Load().det }
