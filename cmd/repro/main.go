// Command repro regenerates every figure of the paper's evaluation from
// the synthesized datasets: Figure 4 (deviation matrices), Figure 5
// (score-trend waveforms per model configuration), Figure 6 (ROC /
// precision-recall / critic-N comparisons), and Figure 7 (the enterprise
// case studies). Outputs are CSV files plus ASCII renderings.
//
// Usage:
//
//	repro -fig all -preset fast -out out/
//	repro -fig 6 -preset tiny
package main

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"time"

	"acobe/internal/experiment"
	"acobe/internal/plot"
)

func main() {
	if err := run(os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "repro:", err)
		os.Exit(1)
	}
}

func run(args []string) error {
	fs := flag.NewFlagSet("repro", flag.ContinueOnError)
	var (
		fig    = fs.String("fig", "all", "figure to regenerate: 4, 5, 6, 7 or all")
		preset = fs.String("preset", "fast", "scale preset: tiny, fast or paper")
		outDir = fs.String("out", "out", "output directory for CSV files")
		quiet  = fs.Bool("quiet", false, "suppress ASCII chart rendering")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}

	var p experiment.Preset
	switch *preset {
	case "tiny":
		p = experiment.TinyPreset()
	case "fast":
		p = experiment.FastPreset()
	case "paper":
		p = experiment.PaperPreset()
	default:
		return fmt.Errorf("unknown preset %q", *preset)
	}

	r := &reproducer{preset: p, out: *outDir, quiet: *quiet}
	want := func(f string) bool { return *fig == "all" || *fig == f }

	if want("4") || want("5") || want("6") {
		fmt.Printf("building CERT dataset (%s preset, %d users/dept)...\n", p.Name, p.UsersPerDept)
		start := time.Now()
		data, err := experiment.BuildCERTData(p)
		if err != nil {
			return err
		}
		fmt.Printf("dataset ready in %v\n", time.Since(start).Round(time.Second))
		r.data = data
	}

	if want("4") {
		if err := r.fig4(); err != nil {
			return err
		}
	}
	if want("5") || want("6") {
		if err := r.fig56(want("5"), want("6")); err != nil {
			return err
		}
	}
	if want("7") {
		if err := r.fig7(); err != nil {
			return err
		}
	}
	fmt.Println("done; outputs in", *outDir)
	return nil
}

type reproducer struct {
	preset experiment.Preset
	out    string
	quiet  bool
	data   *experiment.CERTData
}

func (r *reproducer) emitChart(c *plot.Chart, path string) error {
	if err := c.SaveCSV(filepath.Join(r.out, path)); err != nil {
		return err
	}
	if !r.quiet {
		fmt.Println(c.ASCII(12, 72))
	}
	return nil
}

func (r *reproducer) fig4() error {
	fmt.Println("== Figure 4: compound behavioral deviation matrices ==")
	heatmaps, err := experiment.BuildFig4(r.data)
	if err != nil {
		return err
	}
	for i, h := range heatmaps {
		if err := h.SaveCSV(filepath.Join(r.out, fmt.Sprintf("fig4_%d.csv", i+1))); err != nil {
			return err
		}
		if !r.quiet {
			fmt.Println(h.ASCII())
		}
	}
	return nil
}

func (r *reproducer) fig56(want5, want6 bool) error {
	runsByModel := make(map[experiment.ModelKind][]*experiment.ScenarioRun)
	scenarios := r.data.Gen.Scenarios()

	for _, kind := range experiment.AllModelKinds() {
		for _, sc := range scenarios {
			fmt.Printf("running %v on %s...\n", kind, sc.Name())
			start := time.Now()
			run, err := experiment.RunScenario(r.data, kind, sc)
			if err != nil {
				return err
			}
			fmt.Printf("  done in %v\n", time.Since(start).Round(time.Second))
			runsByModel[kind] = append(runsByModel[kind], run)

			if want5 && sc.Name() == "r6.1-s2" {
				if err := r.fig5(kind, run); err != nil {
					return err
				}
			}
		}
	}

	if !want6 {
		return nil
	}
	fmt.Println("== Figure 6: model comparison ==")
	res, err := experiment.BuildFig6(runsByModel)
	if err != nil {
		return err
	}
	if err := r.emitChart(res.ROC, "fig6a_roc.csv"); err != nil {
		return err
	}
	if err := r.emitChart(res.PR, "fig6b_pr.csv"); err != nil {
		return err
	}
	if err := res.Summary.SaveCSV(filepath.Join(r.out, "fig6_summary.csv")); err != nil {
		return err
	}
	fmt.Println(res.Summary.String())

	// Figure 6(c): critic N sweep reuses the ACOBE score series; only the
	// critic re-ranks, so no retraining is needed.
	runsByN := make(map[int][]*experiment.ScenarioRun)
	for n := 1; n <= 3; n++ {
		runs, err := experiment.ReRankRuns(r.data, runsByModel[experiment.ModelACOBE], n)
		if err != nil {
			return err
		}
		runsByN[n] = runs
	}
	resN, err := experiment.BuildFig6N(runsByN)
	if err != nil {
		return err
	}
	if err := r.emitChart(resN.PR, "fig6c_pr_n.csv"); err != nil {
		return err
	}
	if err := resN.Summary.SaveCSV(filepath.Join(r.out, "fig6c_summary.csv")); err != nil {
		return err
	}
	fmt.Println(resN.Summary.String())
	return nil
}

func (r *reproducer) fig5(kind experiment.ModelKind, run *experiment.ScenarioRun) error {
	aspects := []string{experiment.Fig5AspectFor(kind)}
	if kind == experiment.ModelACOBE {
		aspects = []string{"device", "http"} // Figure 5(a) and 5(b)
	}
	for _, aspect := range aspects {
		w, err := experiment.BuildFig5Waveform(r.data, run, aspect)
		if err != nil {
			return err
		}
		name := fmt.Sprintf("fig5_%s_%s.csv", strings.ToLower(kind.String()), aspect)
		name = strings.ReplaceAll(name, "/", "-")
		if err := w.Chart.SaveCSV(filepath.Join(r.out, name)); err != nil {
			return err
		}
		fmt.Printf("Fig5 %v/%s: mean=%.5f std=%.5f\n", kind, aspect, w.Mean, w.Std)
		if !r.quiet {
			fmt.Println(w.Chart.ASCII(10, 72))
		}
	}
	return nil
}

func (r *reproducer) fig7() error {
	fmt.Println("== Figure 7: enterprise case studies ==")
	p := experiment.EnterpriseDefaultPreset()
	if r.preset.Name == "tiny" {
		p = experiment.EnterpriseTinyPreset()
	}
	for _, kind := range []experiment.AttackKind{experiment.AttackRansomware, experiment.AttackZeus} {
		fmt.Printf("running %s case study (%d employees)...\n", kind, p.Employees)
		start := time.Now()
		run, err := experiment.RunEnterprise(p, kind)
		if err != nil {
			return err
		}
		fmt.Printf("  done in %v\n", time.Since(start).Round(time.Second))
		charts, rank, err := experiment.BuildFig7(run)
		if err != nil {
			return err
		}
		for _, c := range charts {
			name := fmt.Sprintf("fig7_%s_%s.csv", kind, strings.ToLower(strings.Split(c.Title, " ")[1]))
			if err := r.emitChart(c, name); err != nil {
				return err
			}
		}
		if err := r.emitChart(rank, fmt.Sprintf("fig7_%s_rank.csv", kind)); err != nil {
			return err
		}
		attackIdx := int(run.AttackDay - run.ScoreFrom)
		if attackIdx >= 0 && attackIdx < len(run.VictimDailyRank) {
			fmt.Printf("Fig7 %s: victim daily ranks from attack day: %v\n",
				kind, run.VictimDailyRank[attackIdx:minInt(attackIdx+16, len(run.VictimDailyRank))])
		}
	}
	return nil
}

func minInt(a, b int) int {
	if a < b {
		return a
	}
	return b
}
