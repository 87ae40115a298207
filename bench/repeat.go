package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
)

// benchmarkFile is BENCHMARK.json at the repository root, which fixes
// each end-to-end metric's regression bound.
const benchmarkFile = "BENCHMARK.json"

type benchmarkDoc struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name   string `json:"name"`
		Unit   string `json:"unit"`
		Better string `json:"better"`
	} `json:"per_layer"`
}

func loadBenchmark(path string) (*benchmarkDoc, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var doc benchmarkDoc
	dec := json.NewDecoder(bytes.NewReader(b))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&doc); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &doc, nil
}

// metricSet is one end-to-end metric on one workload across a set of runs.
type metricSet struct {
	Workload string    `json:"workload"`
	Metric   string    `json:"metric"`
	Unit     string    `json:"unit"`
	Better   string    `json:"better"`
	Bound    float64   `json:"bound"` // 0: a diagnostic, not refereed
	Values   []float64 `json:"values"`
	Q1       float64   `json:"q1"`
	Median   float64   `json:"median"`
	Q3       float64   `json:"q3"`
	Spread   float64   `json:"spread"` // (Q3−Q1)/median, the driver's measure

	// The same runs as measured, before scaling to reference host speed
	// (equal to Values for metrics that are not scaled).
	RawValues []float64 `json:"raw_values"`
	RawMedian float64   `json:"raw_median"`
	RawSpread float64   `json:"raw_spread"`
}

// runSet is what -repeat writes: one set of runs of one commit.
type runSet struct {
	Stamp   stamp       `json:"stamp"`
	Sizes   []spec      `json:"sizes"`
	Seeds   []uint64    `json:"seeds"`
	Seconds float64     `json:"seconds"`
	Metrics []metricSet `json:"metrics"`
}

// calibrationMetric is the host-speed kernel's median time in a run
// (calibrate.go), which every run prints and writes to its result file.
const calibrationMetric = "host.calibration_ms"

func loadResult(path string) (*result, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var res result
	if err := json.Unmarshal(b, &res); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &res, nil
}

// repeatRuns runs the chosen workloads n times each, one fresh process per
// run and one seed per run, and reports every end-to-end metric's median,
// quartiles and spread against its bound. The set is written to
// <outDir>/set.json.
func repeatRuns(n int, only string, seed uint64, seconds float64, outDir string, stdout io.Writer) error {
	doc, err := loadBenchmark(benchmarkFile)
	if err != nil {
		return err
	}
	self, err := os.Executable()
	if err != nil {
		return err
	}
	set := runSet{Stamp: newStamp(), Seconds: seconds}
	for i := 0; i < n; i++ {
		set.Seeds = append(set.Seeds, seed+uint64(i))
	}
	for _, sp := range specs {
		if only != "" && only != sp.Name {
			continue
		}
		set.Sizes = append(set.Sizes, sp)
		values, raw := make(map[string][]float64), make(map[string][]float64)
		for i, s := range set.Seeds {
			cmd := exec.Command(self, "-workload", sp.Name, "-seed", strconv.FormatUint(s, 10),
				"-seconds", strconv.FormatFloat(seconds, 'g', -1, 64), "-trace", "0", "-out", outDir)
			cmd.Stderr = os.Stderr
			out, err := cmd.Output()
			if err != nil {
				return fmt.Errorf("%s seed %d: %w", sp.Name, s, err)
			}
			lines := bytes.Split(bytes.TrimSpace(out), []byte{'\n'})
			var line struct {
				Correct bool
				Metrics map[string]struct{ Value float64 }
			}
			if err := json.Unmarshal(lines[len(lines)-1], &line); err != nil {
				return fmt.Errorf("%s seed %d: last line: %w", sp.Name, s, err)
			}
			if !line.Correct {
				return fmt.Errorf("%s seed %d: output checks failed", sp.Name, s)
			}
			for name, m := range line.Metrics {
				values[name] = append(values[name], m.Value)
			}
			// The values as measured and the host's speed during the run
			// are not driver metrics; they are in the result file.
			res, err := loadResult(filepath.Join(outDir, "result-"+sp.Name+".json"))
			if err != nil {
				return fmt.Errorf("%s seed %d: %w", sp.Name, s, err)
			}
			for _, m := range res.Metrics {
				if m.Raw == 0 {
					m.Raw = m.Value
				}
				raw[m.Name] = append(raw[m.Name], m.Raw)
			}
			fmt.Fprintf(stdout, "%s seed %d done, %s %.1f\n", sp.Name, s, calibrationMetric, raw[calibrationMetric][i])
		}
		rows := []metricSet{{Workload: sp.Name, Metric: calibrationMetric, Unit: "ms", Better: "lower", Values: raw[calibrationMetric]}}
		for _, e := range doc.EndToEnd {
			rows = append(rows, metricSet{Workload: sp.Name, Metric: e.Name, Unit: e.Unit, Better: e.Better, Bound: e.Bound, Values: values[e.Name]})
		}
		for _, ms := range rows {
			ms.Q1, ms.Median, ms.Q3 = quartiles(ms.Values)
			ms.Spread = spread(ms.Values)
			ms.RawValues = raw[ms.Metric]
			ms.RawMedian, ms.RawSpread = median(ms.RawValues), spread(ms.RawValues)
			set.Metrics = append(set.Metrics, ms)
		}
	}
	fmt.Fprintf(stdout, "\n%-18s %-24s %12s %12s %12s %7s %6s   %12s %7s\n",
		"workload", "metric", "q1", "median", "q3", "spread", "bound", "as measured", "spread")
	for _, ms := range set.Metrics {
		flag := ""
		if ms.Metric != "setup_s" && ms.Bound > 0 && ms.Spread > ms.Bound/3 {
			flag = "  spread above a third of the bound"
		}
		fmt.Fprintf(stdout, "%-18s %-24s %12.6g %12.6g %12.6g %6.1f%% %5.0f%%   %12.6g %6.1f%%%s\n",
			ms.Workload, ms.Metric, ms.Q1, ms.Median, ms.Q3, 100*ms.Spread, 100*ms.Bound, ms.RawMedian, 100*ms.RawSpread, flag)
	}
	if err := os.MkdirAll(outDir, 0o755); err != nil {
		return err
	}
	b, err := json.MarshalIndent(set, "", " ")
	if err != nil {
		return err
	}
	path := filepath.Join(outDir, "set.json")
	fmt.Fprintf(stdout, "\nwrote %s\n", path)
	return os.WriteFile(path, append(b, '\n'), 0o644)
}
