// Package metrics provides the small statistics toolkit used by the
// experiment harnesses: distribution summaries (mean, percentiles, max),
// convergence series, and table rendering helpers shared by the cmd/ tools
// and the benchmark suite.
package metrics

import (
	"fmt"
	"math"
	"sort"
	"strings"
)

// Summary describes a sample distribution.
type Summary struct {
	N              int
	Mean, Min, Max float64
	P50, P90, P99  float64
	Stddev         float64
}

// Summarize computes a Summary of the samples. An empty input yields a
// zero Summary. NaN samples are dropped (N counts only the retained
// values); infinities propagate into min/max/mean but leave Stddev zero
// rather than NaN.
func Summarize(samples []float64) Summary {
	var s Summary
	sorted := make([]float64, 0, len(samples))
	for _, x := range samples {
		if !math.IsNaN(x) {
			sorted = append(sorted, x)
		}
	}
	s.N = len(sorted)
	if s.N == 0 {
		return s
	}
	sort.Float64s(sorted)
	s.Min = sorted[0]
	s.Max = sorted[s.N-1]
	var sum float64
	for _, x := range sorted {
		sum += x
	}
	s.Mean = sum / float64(s.N)
	// Two-pass variance: summing squared deviations instead of
	// E[x²]−E[x]² avoids the catastrophic cancellation that turned the
	// variance of near-constant samples negative (or garbage).
	var devSq float64
	for _, x := range sorted {
		d := x - s.Mean
		devSq += d * d
	}
	if variance := devSq / float64(s.N); variance > 0 && !math.IsInf(variance, 0) && !math.IsNaN(variance) {
		s.Stddev = math.Sqrt(variance)
	}
	s.P50 = percentile(sorted, 0.50)
	s.P90 = percentile(sorted, 0.90)
	s.P99 = percentile(sorted, 0.99)
	return s
}

// percentile reads the p-quantile from an ascending-sorted sample using the
// nearest-rank method.
func percentile(sorted []float64, p float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	idx := int(math.Ceil(p*float64(len(sorted)))) - 1
	if idx < 0 {
		idx = 0
	}
	if idx >= len(sorted) {
		idx = len(sorted) - 1
	}
	return sorted[idx]
}

// String renders "n=… mean=… p50=… p90=… p99=… max=…".
func (s Summary) String() string {
	return fmt.Sprintf("n=%d mean=%.2f min=%.2f p50=%.2f p90=%.2f p99=%.2f max=%.2f sd=%.2f",
		s.N, s.Mean, s.Min, s.P50, s.P90, s.P99, s.Max, s.Stddev)
}

// Ints converts integer samples for Summarize.
func Ints(xs []int) []float64 {
	out := make([]float64, len(xs))
	for i, x := range xs {
		out[i] = float64(x)
	}
	return out
}

// Table accumulates rows and renders them with aligned columns — the
// output format of every experiment harness, mirroring the rows/series a
// paper table would report.
type Table struct {
	header []string
	rows   [][]string
}

// NewTable creates a table with the given column headers.
func NewTable(header ...string) *Table {
	return &Table{header: header}
}

// AddRow appends a row; cells are formatted with %v.
func (t *Table) AddRow(cells ...any) {
	row := make([]string, len(cells))
	for i, c := range cells {
		switch x := c.(type) {
		case float64:
			row[i] = fmt.Sprintf("%.2f", x)
		default:
			row[i] = fmt.Sprintf("%v", c)
		}
	}
	t.rows = append(t.rows, row)
}

// NumRows returns the number of data rows.
func (t *Table) NumRows() int { return len(t.rows) }

// String renders the table with padded columns. Column widths are sized
// over every row, including rows wider than the header, so trailing
// columns stay aligned; only each row's final cell is left unpadded (no
// trailing whitespace).
func (t *Table) String() string {
	cols := len(t.header)
	for _, row := range t.rows {
		if len(row) > cols {
			cols = len(row)
		}
	}
	widths := make([]int, cols)
	for i, h := range t.header {
		widths[i] = len(h)
	}
	for _, row := range t.rows {
		for i, cell := range row {
			if len(cell) > widths[i] {
				widths[i] = len(cell)
			}
		}
	}
	var b strings.Builder
	writeRow := func(cells []string) {
		for i, cell := range cells {
			if i > 0 {
				b.WriteString("  ")
			}
			b.WriteString(cell)
			if i < len(cells)-1 {
				b.WriteString(strings.Repeat(" ", widths[i]-len(cell)))
			}
		}
		b.WriteString("\n")
	}
	writeRow(t.header)
	sep := make([]string, cols)
	for i := range sep {
		sep[i] = strings.Repeat("-", widths[i])
	}
	writeRow(sep)
	for _, row := range t.rows {
		writeRow(row)
	}
	return b.String()
}

// CSV renders the table as comma-separated values (cells containing commas
// or quotes are quoted), for piping experiment output into plotting tools.
func (t *Table) CSV() string {
	var b strings.Builder
	writeRow := func(cells []string) {
		for i, cell := range cells {
			if i > 0 {
				b.WriteString(",")
			}
			if strings.ContainsAny(cell, ",\"\n") {
				b.WriteString("\"" + strings.ReplaceAll(cell, "\"", "\"\"") + "\"")
			} else {
				b.WriteString(cell)
			}
		}
		b.WriteString("\n")
	}
	writeRow(t.header)
	for _, row := range t.rows {
		writeRow(row)
	}
	return b.String()
}

// Series is a named (x, y) sequence — one line of a figure.
type Series struct {
	Name string
	X, Y []float64
}

// Add appends a point.
func (s *Series) Add(x, y float64) {
	s.X = append(s.X, x)
	s.Y = append(s.Y, y)
}

// GrowthExponent estimates b in y ≈ a·x^b by least squares on log-log
// points — the tool the experiments use to distinguish linear from
// polylogarithmic convergence shapes. It returns ok=false with fewer than
// two valid (positive) points.
func (s *Series) GrowthExponent() (b float64, ok bool) {
	var xs, ys []float64
	for i := range s.X {
		if s.X[i] > 0 && s.Y[i] > 0 {
			xs = append(xs, math.Log(s.X[i]))
			ys = append(ys, math.Log(s.Y[i]))
		}
	}
	if len(xs) < 2 {
		return 0, false
	}
	n := float64(len(xs))
	var sx, sy, sxy, sxx float64
	for i := range xs {
		sx += xs[i]
		sy += ys[i]
		sxy += xs[i] * ys[i]
		sxx += xs[i] * xs[i]
	}
	den := n*sxx - sx*sx
	if den == 0 {
		return 0, false
	}
	return (n*sxy - sx*sy) / den, true
}
