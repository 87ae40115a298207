package plot

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

func testChart() *Chart {
	return &Chart{
		Title:  "t",
		XName:  "day",
		YName:  "score",
		XLabel: []string{"d1", "d2", "d3"},
		Series: []Series{
			{Name: "a", Y: []float64{1, 2, 3}},
			{Name: "b", Y: []float64{3, 2, 1}},
		},
	}
}

func TestChartCSV(t *testing.T) {
	var buf bytes.Buffer
	if err := testChart().WriteCSV(&buf); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(buf.String()), "\n")
	if lines[0] != "day,a,b" {
		t.Errorf("header %q", lines[0])
	}
	if len(lines) != 4 {
		t.Fatalf("%d lines", len(lines))
	}
	if lines[1] != "d1,1,3" {
		t.Errorf("row %q", lines[1])
	}
}

func TestChartCSVShortSeries(t *testing.T) {
	c := testChart()
	c.Series[1].Y = c.Series[1].Y[:1] // shorter than x axis
	var buf bytes.Buffer
	if err := c.WriteCSV(&buf); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(buf.String()), "\n")
	if !strings.HasSuffix(lines[2], ",") {
		t.Errorf("missing value not blank: %q", lines[2])
	}
}

func TestChartSaveCSVCreatesDirs(t *testing.T) {
	path := filepath.Join(t.TempDir(), "a", "b", "c.csv")
	if err := testChart().SaveCSV(path); err != nil {
		t.Fatal(err)
	}
	if _, err := os.Stat(path); err != nil {
		t.Fatal(err)
	}
}

func TestChartASCII(t *testing.T) {
	out := testChart().ASCII(6, 24)
	if !strings.Contains(out, "t  [score vs day]") {
		t.Errorf("missing title: %s", out)
	}
	if !strings.Contains(out, "*") || !strings.Contains(out, "o") {
		t.Errorf("missing glyphs:\n%s", out)
	}
	if !strings.Contains(out, "*=a") || !strings.Contains(out, "o=b") {
		t.Errorf("missing legend:\n%s", out)
	}
	if !strings.Contains(out, "d1 … d3") {
		t.Errorf("missing x labels:\n%s", out)
	}
}

func TestChartASCIIEmpty(t *testing.T) {
	c := &Chart{Title: "empty"}
	if out := c.ASCII(5, 20); !strings.Contains(out, "no data") {
		t.Errorf("empty chart rendered %q", out)
	}
}

func TestChartASCIIConstantSeries(t *testing.T) {
	c := &Chart{Title: "flat", Series: []Series{{Name: "x", Y: []float64{2, 2, 2}}}}
	out := c.ASCII(5, 20)
	if strings.Contains(out, "NaN") {
		t.Errorf("constant series produced NaN:\n%s", out)
	}
}

func TestHeatmapCSVAndASCII(t *testing.T) {
	h := &Heatmap{
		Title:  "hm",
		Rows:   []string{"r1", "r2"},
		Cols:   []string{"c1", "c2", "c3"},
		Values: [][]float64{{-3, 0, 3}, {0, 3, -3}},
		Lo:     -3, Hi: 3,
	}
	var buf bytes.Buffer
	if err := h.WriteCSV(&buf); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(buf.String()), "\n")
	if len(lines) != 7 { // header + 6 cells
		t.Fatalf("%d lines", len(lines))
	}
	if lines[1] != "r1,c1,-3" {
		t.Errorf("cell row %q", lines[1])
	}

	out := h.ASCII()
	if !strings.Contains(out, "r1 │") {
		t.Errorf("missing row label:\n%s", out)
	}
	// -3 maps to the lightest shade (space), +3 to the darkest (@).
	if !strings.Contains(out, "@") {
		t.Errorf("missing dark shade:\n%s", out)
	}
}

func TestHeatmapAutoScale(t *testing.T) {
	h := &Heatmap{
		Title:  "auto",
		Rows:   []string{"r"},
		Cols:   []string{"c"},
		Values: [][]float64{{5}},
	}
	if out := h.ASCII(); !strings.Contains(out, "@") {
		// Single value auto-scales to the top of the ramp... actually with
		// hi == lo the range widens; just require no panic and some output.
		if len(out) == 0 {
			t.Error("empty rendering")
		}
	}
}

func TestTableStringAndCSV(t *testing.T) {
	tab := &Table{Title: "results", Columns: []string{"model", "auc"}}
	tab.AddRow("ACOBE", "0.99")
	tab.AddRow("Baseline", "0.95")
	s := tab.String()
	if !strings.Contains(s, "results") || !strings.Contains(s, "ACOBE") {
		t.Errorf("table string:\n%s", s)
	}
	var buf bytes.Buffer
	if err := tab.WriteCSV(&buf); err != nil {
		t.Fatal(err)
	}
	if !strings.HasPrefix(buf.String(), "model,auc\nACOBE,0.99\n") {
		t.Errorf("table csv %q", buf.String())
	}
}

func TestHeatmapSaveCSV(t *testing.T) {
	h := &Heatmap{Title: "x", Rows: []string{"r"}, Cols: []string{"c"}, Values: [][]float64{{1}}}
	path := filepath.Join(t.TempDir(), "deep", "h.csv")
	if err := h.SaveCSV(path); err != nil {
		t.Fatal(err)
	}
	if _, err := os.Stat(path); err != nil {
		t.Fatal(err)
	}
}

func TestTableSaveCSV(t *testing.T) {
	tab := &Table{Columns: []string{"a"}}
	tab.AddRow("1")
	path := filepath.Join(t.TempDir(), "t.csv")
	if err := tab.SaveCSV(path); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if string(data) != "a\n1\n" {
		t.Errorf("table csv %q", data)
	}
}

func TestChartASCIISinglePoint(t *testing.T) {
	c := &Chart{Title: "one", XLabel: []string{"d"}, Series: []Series{{Name: "s", Y: []float64{5}}}}
	out := c.ASCII(4, 16)
	if !strings.Contains(out, "*") {
		t.Errorf("single point not rendered:\n%s", out)
	}
}

func TestHeatmapEmpty(t *testing.T) {
	h := &Heatmap{Title: "void"}
	if out := h.ASCII(); !strings.Contains(out, "no data") {
		t.Errorf("empty heatmap rendered %q", out)
	}
}

func TestChartASCIIMinimumDimensions(t *testing.T) {
	c := testChart()
	out := c.ASCII(1, 5) // clamped up internally
	if len(out) == 0 {
		t.Error("no output at minimum dimensions")
	}
}
