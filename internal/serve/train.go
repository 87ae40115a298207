package serve

import (
	"context"

	"acobe/internal/cert"
	"acobe/pkg/acobe"
)

// newDetector builds an untrained detector over a published state's
// headers.
func (s *Server) newDetector(p *published) (*acobe.Detector, error) {
	opts := append([]acobe.Option(nil), s.cfg.DetectorOptions...)
	opts = append(opts, acobe.WithGroupDeviations(s.grp != nil))
	return acobe.NewDetectorFromFields(p.ind, p.grp, s.membership(), opts...)
}

// Retrain fits a fresh ensemble on the training days [from, to] and swaps
// it in atomically; the previous detector keeps serving Rank until the
// swap. The fit runs directly on the headers published when it starts —
// they never change, so there is nothing to copy or lock — while ingest,
// closes, and queries proceed concurrently and the per-aspect models fit
// in parallel under the compute worker budget. With wait=false the fit
// continues in the background (tied to the server's lifetime context);
// with wait=true it is additionally tied to ctx and the call blocks until
// the swap or an error.
func (s *Server) Retrain(ctx context.Context, from, to cert.Day, wait bool) error {
	if !s.retraining.CompareAndSwap(false, true) {
		return ErrRetrainInProgress
	}
	retrainStart := s.obs.Clock()
	det, err := s.newDetector(s.pub.Load())
	if err != nil {
		s.retraining.Store(false)
		return err
	}
	// Setup is a pointer load and a detector build; the stage is recorded
	// so scrapes carry one observation per retrain.
	s.obs.ObserveRetrainClone(retrainStart)

	trainCtx, cancelTrain := context.WithCancel(s.lifeCtx)
	var stop func() bool
	if wait {
		stop = context.AfterFunc(ctx, cancelTrain)
	}
	run := func() error {
		defer s.retraining.Store(false)
		defer cancelTrain()
		if stop != nil {
			defer stop()
		}
		err := func() error {
			if _, err := det.Fit(trainCtx, from, to); err != nil {
				return err
			}
			return s.swapIn(det)
		}()
		s.lastTrainErr.Store(errBox{err})
		s.obs.ObserveRetrain(retrainStart, err)
		return err
	}
	if wait {
		return run()
	}
	s.retrainWG.Add(1)
	go func() {
		defer s.retrainWG.Done()
		_ = run() // surfaced via Status.LastTrainError
	}()
	return nil
}

// swapIn rebinds the trained models onto the currently published headers
// and publishes the resulting detector beside them, with an empty score
// memo: a new model is the one event that invalidates scored columns. A
// rank still in flight against the old state fills only the old memo,
// which is dropped with that state. Holding pubMu keeps a
// concurrent day close from publishing newer headers between the load and
// the store (the close rebinds whatever detector it finds under the same
// mutex).
func (s *Server) swapIn(trained *acobe.Detector) error {
	s.pubMu.Lock()
	defer s.pubMu.Unlock()
	next := *s.pub.Load()
	det, err := trained.Rebind(next.ind, next.grp, s.membership())
	if err != nil {
		return err
	}
	next.det, next.scores = det, newScoreMemo(det)
	s.pub.Store(&next)
	return nil
}
