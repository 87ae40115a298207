// Embed: using the public pkg/acobe facade directly.
//
// The other examples drive the internal experiment harness; this one shows
// what an external program does — import only "acobe/pkg/acobe", fill a
// measurement table from its own telemetry, and run the detector lifecycle
// by hand: NewDetector → Fit → ScoreBatch, its own aggregate of the daily
// scores and the critic, plus SaveModels/LoadModels for shipping trained
// weights between processes.
//
// The "telemetry" here is synthetic: a small fleet of service accounts
// with seasonal request/error/transfer counts, one of which starts
// exfiltrating during the scoring window.
//
// Run with:
//
//	go run ./examples/embed
package main

import (
	"bytes"
	"context"
	"fmt"
	"io"
	"log"
	"os"

	"acobe/pkg/acobe"
)

func main() {
	log.SetFlags(0)
	if err := run(os.Stdout); err != nil {
		log.Fatal(err)
	}
}

// Fleet layout: accounts 0..5 belong to the "batch" pool, 6..11 to the
// "api" pool; account 9 goes rogue on rogueFrom.
const (
	nAccounts = 12
	days      = 120
	trainTo   = acobe.Day(89)
	rogueFrom = acobe.Day(100)
	rogueID   = 9
)

func run(out io.Writer) error {
	ctx := context.Background()

	accounts := make([]string, nAccounts)
	membership := make([]int, nAccounts)
	for i := range accounts {
		accounts[i] = fmt.Sprintf("svc-%02d", i)
		membership[i] = i / 6
	}
	features := []string{"requests", "errors", "bytes-out"}

	tbl, err := acobe.NewTable(accounts, features, acobe.NumTimeframes, 0, days-1)
	if err != nil {
		return err
	}
	fillTelemetry(tbl, accounts, features)

	opts := func() []acobe.Option {
		return []acobe.Option{
			acobe.WithAspects(acobe.Aspect{Name: "traffic", Features: features}),
			acobe.WithGroups([]string{"batch", "api"}, membership),
			// Raw counts on a handful of features: no TF weights.
			acobe.WithDeviationConfig(acobe.DeviationConfig{Window: 14, MatrixDays: 7, Delta: 3, Epsilon: 1}),
			acobe.WithSeed(3),
			acobe.WithModelConfig(func(dim int) acobe.ModelConfig {
				cfg := acobe.FastModelConfig(dim)
				cfg.Hidden = []int{16, 8}
				cfg.Epochs = 40
				return cfg
			}),
		}
	}
	det, err := acobe.NewDetector(tbl, opts()...)
	if err != nil {
		return err
	}

	fmt.Fprintf(out, "fitting on days %v..%v...\n", det.FirstScoreableDay(), trainTo)
	losses, err := det.Fit(ctx, det.FirstScoreableDay(), trainTo)
	if err != nil {
		return err
	}
	for aspect, loss := range losses {
		fmt.Fprintf(out, "  aspect %q converged at loss %.5f\n", aspect, loss)
	}

	// Round-trip the trained weights the way a scoring process would
	// receive them from a training process.
	var weights bytes.Buffer
	if err := det.SaveModels(&weights); err != nil {
		return err
	}
	scorer, err := acobe.NewDetector(tbl, opts()...)
	if err != nil {
		return err
	}
	if err := scorer.LoadModels(&weights); err != nil {
		return err
	}

	// Rank by hand: plain max aggregation, which separates a single
	// bursting account best here, then the critic with one vote.
	series, err := scorer.ScoreBatch(ctx, rogueFrom, days-1)
	if err != nil {
		return err
	}
	byAspect := make([][]float64, len(series))
	for i, s := range series {
		byAspect[i] = acobe.AggregateMax(s)
	}
	list := acobe.Critic(scorer.Users(), byAspect, 1)
	fmt.Fprintf(out, "\ninvestigation list for days %v..%v:\n", rogueFrom, acobe.Day(days-1))
	for i, r := range list {
		marker := ""
		if r.User == accounts[rogueID] {
			marker = "  ← the rogue account"
		}
		fmt.Fprintf(out, "%3d. %-8s priority=%d%s\n", i+1, r.User, r.Priority, marker)
	}
	if list[0].User != accounts[rogueID] {
		return fmt.Errorf("expected %s on top of the list", accounts[rogueID])
	}
	return nil
}

// fillTelemetry writes deterministic seasonal counts: every account has its
// own baseline and weekly rhythm, and the rogue account's bytes-out and
// error counts jump during the incident window.
func fillTelemetry(tbl *acobe.Table, accounts, features []string) {
	rng := uint64(0x9e3779b97f4a7c15)
	next := func() float64 {
		rng ^= rng << 13
		rng ^= rng >> 7
		rng ^= rng << 17
		return float64(rng%1000) / 1000
	}
	for d := acobe.Day(0); d < days; d++ {
		for a := range accounts {
			for f := range features {
				for frame := 0; frame < acobe.NumTimeframes; frame++ {
					base := float64(10+3*a+2*f) * (1 + 0.25*float64(int(d)%7)/6)
					v := base + 4*next()
					if a == rogueID && d >= rogueFrom && f > 0 {
						v += 80 // errors and bytes-out explode
					}
					tbl.Add(a, f, frame, d, v)
				}
			}
		}
	}
}
