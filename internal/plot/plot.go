// Package plot emits the reproduction's figures as CSV data files (for
// external plotting) and quick ASCII renderings (for terminal inspection).
// Every figure of the paper maps to one or more Series or Heatmap values.
package plot

import (
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"strings"
)

// Series is one named line of (x, y) points sharing a common x grid.
type Series struct {
	Name string
	Y    []float64
}

// Chart is a set of series over a shared x axis.
type Chart struct {
	Title  string
	XName  string
	YName  string
	XLabel []string // one label per x position
	Series []Series
}

// WriteCSV writes the chart as a headered CSV: x label column followed by
// one column per series.
func (c *Chart) WriteCSV(w io.Writer) error {
	cols := make([]string, 0, len(c.Series)+1)
	cols = append(cols, c.XName)
	for _, s := range c.Series {
		cols = append(cols, s.Name)
	}
	if _, err := fmt.Fprintln(w, strings.Join(cols, ",")); err != nil {
		return err
	}
	for i, x := range c.XLabel {
		row := make([]string, 0, len(c.Series)+1)
		row = append(row, x)
		for _, s := range c.Series {
			if i < len(s.Y) {
				row = append(row, fmt.Sprintf("%.6g", s.Y[i]))
			} else {
				row = append(row, "")
			}
		}
		if _, err := fmt.Fprintln(w, strings.Join(row, ",")); err != nil {
			return err
		}
	}
	return nil
}

// SaveCSV writes the chart to path, creating parent directories.
func (c *Chart) SaveCSV(path string) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return fmt.Errorf("plot: %w", err)
	}
	f, err := os.Create(path)
	if err != nil {
		return fmt.Errorf("plot: %w", err)
	}
	defer f.Close()
	if err := c.WriteCSV(f); err != nil {
		return fmt.Errorf("plot: write %s: %w", path, err)
	}
	return nil
}

// ASCII renders the chart as a rows×width ASCII plot. Each series gets a
// distinct glyph; later series draw over earlier ones.
func (c *Chart) ASCII(rows, width int) string {
	if rows < 4 {
		rows = 4
	}
	if width < 16 {
		width = 16
	}
	glyphs := []byte{'*', 'o', '+', 'x', '#', '@', '%', '&'}

	lo, hi := math.Inf(1), math.Inf(-1)
	maxLen := 0
	for _, s := range c.Series {
		for _, v := range s.Y {
			if v < lo {
				lo = v
			}
			if v > hi {
				hi = v
			}
		}
		if len(s.Y) > maxLen {
			maxLen = len(s.Y)
		}
	}
	if maxLen == 0 || math.IsInf(lo, 1) {
		return c.Title + " (no data)\n"
	}
	if hi == lo {
		hi = lo + 1
	}

	grid := make([][]byte, rows)
	for r := range grid {
		grid[r] = []byte(strings.Repeat(" ", width))
	}
	for si, s := range c.Series {
		g := glyphs[si%len(glyphs)]
		for i, v := range s.Y {
			x := 0
			if maxLen > 1 {
				x = i * (width - 1) / (maxLen - 1)
			}
			yRel := (v - lo) / (hi - lo)
			r := rows - 1 - int(yRel*float64(rows-1)+0.5)
			grid[r][x] = g
		}
	}

	var b strings.Builder
	fmt.Fprintf(&b, "%s  [%s vs %s]\n", c.Title, c.YName, c.XName)
	fmt.Fprintf(&b, "%10.4g ┐\n", hi)
	for _, row := range grid {
		fmt.Fprintf(&b, "%10s │%s\n", "", string(row))
	}
	fmt.Fprintf(&b, "%10.4g ┘", lo)
	if len(c.XLabel) > 0 {
		fmt.Fprintf(&b, "  %s … %s", c.XLabel[0], c.XLabel[len(c.XLabel)-1])
	}
	b.WriteByte('\n')
	legend := make([]string, 0, len(c.Series))
	for si, s := range c.Series {
		legend = append(legend, fmt.Sprintf("%c=%s", glyphs[si%len(glyphs)], s.Name))
	}
	fmt.Fprintf(&b, "%10s  %s\n", "", strings.Join(legend, "  "))
	return b.String()
}

// Heatmap is a dense matrix rendering (Figure 4's deviation matrices).
type Heatmap struct {
	Title  string
	Rows   []string // row labels (features)
	Cols   []string // column labels (days)
	Values [][]float64
	// Lo, Hi bound the color scale; zero values auto-scale.
	Lo, Hi float64
}

// WriteCSV emits the heatmap as rows of feature,day,value triples.
func (h *Heatmap) WriteCSV(w io.Writer) error {
	if _, err := fmt.Fprintln(w, "row,col,value"); err != nil {
		return err
	}
	for i, r := range h.Rows {
		for j, c := range h.Cols {
			if _, err := fmt.Fprintf(w, "%s,%s,%.6g\n", r, c, h.Values[i][j]); err != nil {
				return err
			}
		}
	}
	return nil
}

// SaveCSV writes the heatmap to path, creating parent directories.
func (h *Heatmap) SaveCSV(path string) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return fmt.Errorf("plot: %w", err)
	}
	f, err := os.Create(path)
	if err != nil {
		return fmt.Errorf("plot: %w", err)
	}
	defer f.Close()
	if err := h.WriteCSV(f); err != nil {
		return fmt.Errorf("plot: write %s: %w", path, err)
	}
	return nil
}

// shades maps intensity to ASCII ink, light to dark.
var shades = []byte(" .:-=+*#%@")

// ASCII renders the heatmap with one character per cell.
func (h *Heatmap) ASCII() string {
	lo, hi := h.Lo, h.Hi
	if lo == 0 && hi == 0 {
		lo, hi = math.Inf(1), math.Inf(-1)
		for _, row := range h.Values {
			for _, v := range row {
				if v < lo {
					lo = v
				}
				if v > hi {
					hi = v
				}
			}
		}
		if math.IsInf(lo, 1) {
			return h.Title + " (no data)\n"
		}
	}
	if hi == lo {
		hi = lo + 1
	}
	labelW := 0
	for _, r := range h.Rows {
		if len(r) > labelW {
			labelW = len(r)
		}
	}
	var b strings.Builder
	fmt.Fprintf(&b, "%s  (%.3g=light … %.3g=dark)\n", h.Title, lo, hi)
	for i, r := range h.Rows {
		fmt.Fprintf(&b, "%*s │", labelW, r)
		for _, v := range h.Values[i] {
			rel := (v - lo) / (hi - lo)
			if rel < 0 {
				rel = 0
			}
			if rel > 1 {
				rel = 1
			}
			b.WriteByte(shades[int(rel*float64(len(shades)-1)+0.5)])
		}
		b.WriteByte('\n')
	}
	if len(h.Cols) > 0 {
		fmt.Fprintf(&b, "%*s  %s … %s\n", labelW, "", h.Cols[0], h.Cols[len(h.Cols)-1])
	}
	return b.String()
}

// Table renders a simple two-dimensional result table (model × metric) for
// terminal output and CSV export.
type Table struct {
	Title   string
	Columns []string
	RowsOut [][]string
}

// AddRow appends one formatted row.
func (t *Table) AddRow(cells ...string) {
	t.RowsOut = append(t.RowsOut, cells)
}

// WriteCSV emits the table.
func (t *Table) WriteCSV(w io.Writer) error {
	if _, err := fmt.Fprintln(w, strings.Join(t.Columns, ",")); err != nil {
		return err
	}
	for _, r := range t.RowsOut {
		if _, err := fmt.Fprintln(w, strings.Join(r, ",")); err != nil {
			return err
		}
	}
	return nil
}

// SaveCSV writes the table to path, creating parent directories.
func (t *Table) SaveCSV(path string) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return fmt.Errorf("plot: %w", err)
	}
	f, err := os.Create(path)
	if err != nil {
		return fmt.Errorf("plot: %w", err)
	}
	defer f.Close()
	if err := t.WriteCSV(f); err != nil {
		return fmt.Errorf("plot: write %s: %w", path, err)
	}
	return nil
}

// String renders the table with aligned columns.
func (t *Table) String() string {
	widths := make([]int, len(t.Columns))
	for i, c := range t.Columns {
		widths[i] = len(c)
	}
	for _, r := range t.RowsOut {
		for i, c := range r {
			if i < len(widths) && len(c) > widths[i] {
				widths[i] = len(c)
			}
		}
	}
	var b strings.Builder
	if t.Title != "" {
		b.WriteString(t.Title)
		b.WriteByte('\n')
	}
	writeRow := func(cells []string) {
		for i, c := range cells {
			if i > 0 {
				b.WriteString("  ")
			}
			fmt.Fprintf(&b, "%-*s", widths[i], c)
		}
		b.WriteByte('\n')
	}
	writeRow(t.Columns)
	sep := make([]string, len(t.Columns))
	for i := range sep {
		sep[i] = strings.Repeat("-", widths[i])
	}
	writeRow(sep)
	for _, r := range t.RowsOut {
		writeRow(r)
	}
	return b.String()
}
