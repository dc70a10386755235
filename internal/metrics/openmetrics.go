package metrics

// The OpenMetrics / Prometheus text writer behind the live /metrics
// endpoint. It renders values it is handed and holds none: the one store of
// event-derived numbers is trace.Analysis, and internal/telemetry maps its
// accessors to families at scrape time.

import (
	"fmt"
	"io"
	"math"
	"sort"
	"strings"
)

// The family types the writer knows: the exposition's # TYPE spellings.
const (
	Counter = "counter"
	Gauge   = "gauge"
)

// Sample is one series of a family: name/value label pairs and the reading.
type Sample struct {
	Labels []string // "name", "value", … (rendered sorted by name)
	Value  float64
}

// Family is one named metric with its samples.
type Family struct {
	Name, Help string
	Type       string // Counter or Gauge
	Samples    []Sample
}

// escapeLabel escapes a label value per the exposition format.
var escapeLabel = strings.NewReplacer(`\`, `\\`, `"`, `\"`, "\n", `\n`)

// labelBlock renders label pairs as {a="x",b="y"}, sorted by label name,
// values escaped per the exposition format.
func labelBlock(pairs []string) string {
	if len(pairs)%2 != 0 {
		panic("metrics: labels must be name/value pairs")
	}
	if len(pairs) == 0 {
		return ""
	}
	parts := make([]string, 0, len(pairs)/2)
	for i := 0; i < len(pairs); i += 2 {
		parts = append(parts, pairs[i]+`="`+escapeLabel.Replace(pairs[i+1])+`"`)
	}
	sort.Strings(parts)
	return "{" + strings.Join(parts, ",") + "}"
}

// fmtValue renders a sample value the way Prometheus expects (no
// exponent-mangling of integral values, +Inf spelled out).
func fmtValue(v float64) string {
	switch {
	case math.IsInf(v, +1):
		return "+Inf"
	case math.IsInf(v, -1):
		return "-Inf"
	case v == math.Trunc(v) && math.Abs(v) < 1e15:
		return fmt.Sprintf("%d", int64(v))
	default:
		return fmt.Sprintf("%g", v)
	}
}

// WriteOpenMetrics renders the families in the OpenMetrics / Prometheus
// text exposition format: families sorted by name, samples sorted by label
// block, counters with the conventional _total sample suffix, families
// without samples left out, and the required # EOF marker last.
func WriteOpenMetrics(w io.Writer, fams []Family) error {
	fams = append([]Family(nil), fams...)
	sort.SliceStable(fams, func(i, j int) bool { return fams[i].Name < fams[j].Name })
	var b strings.Builder
	for _, f := range fams {
		if len(f.Samples) == 0 {
			continue
		}
		if f.Help != "" {
			fmt.Fprintf(&b, "# HELP %s %s\n", f.Name, f.Help)
		}
		fmt.Fprintf(&b, "# TYPE %s %s\n", f.Name, f.Type)
		name := f.Name
		if f.Type == Counter {
			name += "_total"
		}
		lines := make([]string, len(f.Samples))
		for i, s := range f.Samples {
			lines[i] = name + labelBlock(s.Labels) + " " + fmtValue(s.Value) + "\n"
		}
		sort.Strings(lines)
		for _, l := range lines {
			b.WriteString(l)
		}
	}
	b.WriteString("# EOF\n")
	_, err := io.WriteString(w, b.String())
	return err
}
