package main

import (
	"context"
	"encoding/json"
	"math"
	"os"
	"path/filepath"
	"regexp"
	"sort"
	"testing"
)

var nameRE = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)

// toyRun runs one workload at toy scale, writing only under t.TempDir().
func toyRun(t *testing.T, sp spec, trace, corrupt bool) (res *result, outDir string, err error) {
	t.Helper()
	outDir = t.TempDir()
	res, err = run(context.Background(), runOpts{
		sp: toy(sp), seed: 3, seconds: 1, trace: trace,
		outDir: outDir, tmpDir: t.TempDir(), corruptOracle: corrupt,
	})
	return res, outDir, err
}

// Every workload, at toy scale, untraced and traced: the output checks
// pass, every catalogue metric that applies is emitted exactly once with a
// valid name and a finite value, and the driver line carries exactly the
// metrics BENCHMARK.json lists.
func TestWorkloadsAtToyScale(t *testing.T) {
	doc, err := loadBenchmark(filepath.Join("..", benchmarkFile))
	if err != nil {
		t.Fatal(err)
	}
	for _, sp := range specs {
		for _, trace := range []bool{false, true} {
			name := sp.Name
			if trace {
				name += "/traced"
			}
			t.Run(name, func(t *testing.T) {
				res, outDir, err := toyRun(t, sp, trace, false)
				if err != nil {
					t.Fatal(err)
				}
				if !res.Correct || res.Failed != 0 || res.Attempted < 1 {
					t.Fatalf("correct %v, %d of %d operations failed: %s", res.Correct, res.Failed, res.Attempted, res.FirstError)
				}
				seen := make(map[string]int)
				for _, m := range res.Metrics {
					seen[m.Name]++
					if !nameRE.MatchString(m.Name) {
						t.Errorf("metric name %q is not [A-Za-z0-9_.-]+", m.Name)
					}
					if math.IsNaN(m.Value) || math.IsInf(m.Value, 0) {
						t.Errorf("%s = %v", m.Name, m.Value)
					}
				}
				want := expected(toy(sp), trace)
				for _, n := range want {
					if seen[n] != 1 {
						t.Errorf("%s emitted %d times, want once", n, seen[n])
					}
				}
				if len(seen) != len(want) {
					t.Errorf("%d distinct metrics emitted, catalogue expects %d", len(seen), len(want))
				}

				line, err := res.driverLine()
				if err != nil {
					t.Fatal(err)
				}
				var got struct {
					Correct   *bool
					Attempted *int64
					Failed    *int64
					Metrics   map[string]struct {
						Value *float64
						Unit  string
					}
				}
				if err := json.Unmarshal(line, &got); err != nil {
					t.Fatal(err)
				}
				if got.Correct == nil || got.Attempted == nil || got.Failed == nil {
					t.Fatalf("driver line lacks a key: %s", line)
				}
				listed := make(map[string]string)
				if trace {
					for _, m := range doc.PerLayer {
						listed[m.Name] = m.Unit
					}
				} else {
					for _, m := range doc.EndToEnd {
						listed[m.Name] = m.Unit
					}
				}
				if len(got.Metrics) != len(listed) {
					t.Errorf("driver line has %d metrics, BENCHMARK.json lists %d", len(got.Metrics), len(listed))
				}
				for n, unit := range listed {
					m, ok := got.Metrics[n]
					if !ok || m.Value == nil || m.Unit != unit {
						t.Errorf("driver line: %s missing or in unit %q, want %q", n, m.Unit, unit)
					} else if !trace && *m.Value == 0 {
						t.Errorf("end-to-end metric %s is 0", n)
					}
				}
				if trace {
					raw, err := os.ReadFile(filepath.Join(outDir, "trace-"+sp.Name+".jsonl"))
					if err != nil || len(raw) == 0 {
						t.Errorf("trace file: %d bytes, %v", len(raw), err)
					}
				}
			})
		}
	}
}

// A deliberately corrupted oracle must fail the run.
func TestCorruptedOracleFailsTheRun(t *testing.T) {
	res, _, err := toyRun(t, specs[2], false, true)
	if err != nil {
		t.Fatal(err)
	}
	if res.Correct || res.Failed == 0 {
		t.Fatalf("run passed against a corrupted oracle (failed %d of %d)", res.Failed, res.Attempted)
	}
}

// BENCHMARK.json and the catalogue must agree: the listed metrics are
// exactly the catalogue's listed rows, with the same units and direction,
// and the workloads are exactly the specs.
func TestBenchmarkFileMatchesCatalogue(t *testing.T) {
	doc, err := loadBenchmark(filepath.Join("..", benchmarkFile))
	if err != nil {
		t.Fatal(err)
	}
	if doc.RunSeconds != defaultSeconds {
		t.Errorf("run_seconds %d, harness default %d", doc.RunSeconds, defaultSeconds)
	}
	var names []string
	for _, w := range doc.Workloads {
		names = append(names, w.Name)
		if _, ok := specByName(w.Name); !ok {
			t.Errorf("workload %q has no spec", w.Name)
		}
	}
	if len(names) != len(specs) {
		t.Errorf("workloads %v, specs have %d", names, len(specs))
	}
	type row struct{ unit, better string }
	file := make(map[string]row)
	for _, m := range doc.EndToEnd {
		file["e2e/"+m.Name] = row{m.Unit, m.Better}
		if m.Bound <= 0 || m.Bound > 0.25 {
			t.Errorf("%s: bound %v outside (0, 0.25]", m.Name, m.Bound)
		}
	}
	for _, m := range doc.PerLayer {
		file["layer/"+m.Name] = row{m.Unit, m.Better}
	}
	cat := make(map[string]row)
	for _, d := range catalogue {
		if !nameRE.MatchString(d.Name) {
			t.Errorf("catalogue name %q", d.Name)
		}
		if !d.Listed {
			continue
		}
		for _, sp := range specs {
			if !d.Applies(sp) {
				t.Errorf("%s is listed but does not apply to %s", d.Name, sp.Name)
			}
		}
		key := "e2e/" + d.Name
		if d.Traced {
			key = "layer/" + d.Name
		}
		cat[key] = row{d.Unit, d.Better}
	}
	var diff []string
	for k, v := range cat {
		if file[k] != v {
			diff = append(diff, k)
		}
	}
	for k := range file {
		if _, ok := cat[k]; !ok {
			diff = append(diff, k)
		}
	}
	sort.Strings(diff)
	if len(diff) > 0 {
		t.Errorf("BENCHMARK.json and the catalogue disagree on %v", diff)
	}
}

// toy shrinks a workload to test scale: 100 users, a 3+2-day geometry so
// the first scoreable day is 5, three timed days, a tiny model.
func toy(s spec) spec {
	s.Users = 100
	s.Window, s.MatrixDays = 3, 2
	s.Hidden, s.Epochs = []int{8, 4}, 1
	s.BatchEvents = 100
	s.WarmRanks = 2
	s.RankTop = 10
	s.FitDay = 5
	s.TimedFrom = min(s.TimedFrom, 6)
	s.LastDay = 8
	s.RetrainDays, s.Retrains = 3, 1
	s.Recoveries = 1
	s.DurableDays = min(s.DurableDays, 3)
	if s.OpenLoop {
		s.RatePerS = 400
	}
	return s
}

// expected lists the catalogue names a run of sp reports.
func expected(sp spec, traced bool) []string {
	var out []string
	for _, d := range catalogue {
		if d.Applies(sp) && (traced || !d.Traced) {
			out = append(out, d.Name)
		}
	}
	return out
}
