package metrics

import (
	"math"
	"strings"
	"testing"
	"testing/quick"
)

func TestSummarizeBasics(t *testing.T) {
	s := Summarize([]float64{1, 2, 3, 4, 5})
	if s.N != 5 || s.Mean != 3 || s.Min != 1 || s.Max != 5 {
		t.Errorf("Summary = %+v", s)
	}
	if s.P50 != 3 {
		t.Errorf("P50 = %f, want 3", s.P50)
	}
	if s.P99 != 5 {
		t.Errorf("P99 = %f, want 5", s.P99)
	}
	if math.Abs(s.Stddev-math.Sqrt(2)) > 1e-9 {
		t.Errorf("Stddev = %f, want sqrt(2)", s.Stddev)
	}
	if !strings.Contains(s.String(), "n=5") {
		t.Errorf("String = %q", s.String())
	}
}

func TestSummarizeEmptyAndSingle(t *testing.T) {
	if s := Summarize(nil); s.N != 0 || s.Mean != 0 {
		t.Errorf("empty Summary = %+v", s)
	}
	s := Summarize([]float64{7})
	if s.Min != 7 || s.Max != 7 || s.P50 != 7 || s.Stddev != 0 {
		t.Errorf("single Summary = %+v", s)
	}
}

func TestSummarizeDoesNotMutateInput(t *testing.T) {
	in := []float64{3, 1, 2}
	Summarize(in)
	if in[0] != 3 || in[1] != 1 || in[2] != 2 {
		t.Error("Summarize must not sort the caller's slice")
	}
}

func TestSummaryBoundsProperty(t *testing.T) {
	f := func(raw []float64) bool {
		var clean []float64
		for _, x := range raw {
			if !math.IsNaN(x) && !math.IsInf(x, 0) && math.Abs(x) < 1e12 {
				clean = append(clean, x)
			}
		}
		if len(clean) == 0 {
			return true
		}
		s := Summarize(clean)
		return s.Min <= s.P50 && s.P50 <= s.P90 && s.P90 <= s.P99 &&
			s.P99 <= s.Max && s.Min <= s.Mean+1e-9 && s.Mean <= s.Max+1e-9
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestInts(t *testing.T) {
	if got := Ints([]int{1, 2}); got[0] != 1 || got[1] != 2 {
		t.Errorf("Ints = %v", got)
	}
}

func TestTableRendering(t *testing.T) {
	tab := NewTable("proto", "msgs", "rounds")
	tab.AddRow("isprp", 1234, 7)
	tab.AddRow("linearization", 99, 12.3456)
	if tab.NumRows() != 2 {
		t.Errorf("NumRows = %d", tab.NumRows())
	}
	out := tab.String()
	lines := strings.Split(strings.TrimRight(out, "\n"), "\n")
	if len(lines) != 4 {
		t.Fatalf("table lines = %d: %q", len(lines), out)
	}
	if !strings.HasPrefix(lines[0], "proto") {
		t.Errorf("header = %q", lines[0])
	}
	if !strings.Contains(lines[3], "12.35") {
		t.Errorf("float formatting: %q", lines[3])
	}
	// Columns align: "msgs" position identical in all rows.
	col := strings.Index(lines[0], "msgs")
	if !strings.Contains(lines[2][col:], "1234") {
		t.Errorf("column misaligned: %q", out)
	}
}

func TestSeriesGrowthExponent(t *testing.T) {
	// y = 2x³ → exponent 3.
	var s Series
	for _, x := range []float64{1, 2, 4, 8, 16} {
		s.Add(x, 2*x*x*x)
	}
	b, ok := s.GrowthExponent()
	if !ok || math.Abs(b-3) > 1e-9 {
		t.Errorf("exponent = %f ok=%v, want 3", b, ok)
	}
	// Constant series → exponent 0.
	var c Series
	c.Add(1, 5)
	c.Add(10, 5)
	c.Add(100, 5)
	b, ok = c.GrowthExponent()
	if !ok || math.Abs(b) > 1e-9 {
		t.Errorf("constant exponent = %f", b)
	}
	// Too few points.
	var short Series
	short.Add(1, 1)
	if _, ok := short.GrowthExponent(); ok {
		t.Error("single point must not fit")
	}
	// Non-positive points are skipped.
	var neg Series
	neg.Add(-1, 5)
	neg.Add(0, 5)
	if _, ok := neg.GrowthExponent(); ok {
		t.Error("no valid points must not fit")
	}
	if neg.Name != "" {
		t.Error("zero value name should be empty")
	}
}

func TestTableCSV(t *testing.T) {
	tab := NewTable("a", "b")
	tab.AddRow("plain", 1)
	tab.AddRow("needs,quote", `has"quote`)
	csv := tab.CSV()
	lines := strings.Split(strings.TrimRight(csv, "\n"), "\n")
	if len(lines) != 3 {
		t.Fatalf("csv lines = %d: %q", len(lines), csv)
	}
	if lines[0] != "a,b" {
		t.Errorf("header = %q", lines[0])
	}
	if lines[1] != "plain,1" {
		t.Errorf("row1 = %q", lines[1])
	}
	if lines[2] != `"needs,quote","has""quote"` {
		t.Errorf("row2 = %q", lines[2])
	}
}

func TestSummarizeDropsNaNKeepsInf(t *testing.T) {
	s := Summarize([]float64{math.NaN(), 1, 2, math.NaN(), 3})
	if s.N != 3 || s.Mean != 2 || s.Min != 1 || s.Max != 3 {
		t.Errorf("NaN samples not dropped: %+v", s)
	}
	s = Summarize([]float64{math.NaN(), math.NaN()})
	if s.N != 0 {
		t.Errorf("all-NaN input: %+v", s)
	}
	s = Summarize([]float64{1, math.Inf(1)})
	if s.Max != math.Inf(1) || s.Min != 1 {
		t.Errorf("Inf sample mishandled: %+v", s)
	}
	if math.IsNaN(s.Stddev) {
		t.Errorf("Inf sample produced NaN stddev: %+v", s)
	}
}

func TestSummarizeVarianceCancellation(t *testing.T) {
	// Huge offset + tiny spread: the one-pass E[x²]−E[x]² formula loses
	// all significant digits here and can go negative, making Sqrt NaN.
	base := 1e9
	samples := []float64{base, base + 1e-3, base - 1e-3}
	s := Summarize(samples)
	if math.IsNaN(s.Stddev) || s.Stddev < 0 {
		t.Fatalf("stddev = %v", s.Stddev)
	}
	if s.Stddev > 1e-2 {
		t.Errorf("stddev = %v, want tiny (< 1e-2)", s.Stddev)
	}
	// Exactly constant samples must report exactly zero.
	if s := Summarize([]float64{base, base, base}); s.Stddev != 0 {
		t.Errorf("constant samples: stddev = %v", s.Stddev)
	}
}

func TestPercentileEdgeCases(t *testing.T) {
	one := []float64{42}
	for _, p := range []float64{0, 0.5, 0.99, 1} {
		if got := percentile(one, p); got != 42 {
			t.Errorf("percentile(single, %v) = %v", p, got)
		}
	}
	two := []float64{1, 9}
	if got := percentile(two, 0.5); got != 1 {
		t.Errorf("p50 of pair = %v, want lower nearest-rank 1", got)
	}
	if got := percentile(two, 0.51); got != 9 {
		t.Errorf("p51 of pair = %v, want 9", got)
	}
	if got := percentile(nil, 0.5); got != 0 {
		t.Errorf("empty percentile = %v", got)
	}
}

func TestTableStringNoTrailingPadding(t *testing.T) {
	tab := NewTable("name", "n")
	tab.AddRow("a", 1)
	tab.AddRow("much-longer-name", 123456)
	// A row wider than the header must not panic and must render all cells.
	tab.AddRow("x", 2, "extra")
	out := tab.String()
	for i, line := range strings.Split(out, "\n") {
		if line != strings.TrimRight(line, " ") {
			t.Errorf("line %d has trailing spaces: %q", i, line)
		}
	}
	if !strings.Contains(out, "extra") {
		t.Errorf("overflow cell dropped:\n%s", out)
	}
	for _, line := range strings.Split(strings.TrimRight(out, "\n"), "\n")[2:] {
		if !strings.Contains(out, line) {
			t.Errorf("missing row %q", line)
		}
	}
}
