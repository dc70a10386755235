package metrics

import (
	"flag"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

var update = flag.Bool("update", false, "rewrite golden files")

func render(t *testing.T, fams ...Family) string {
	t.Helper()
	var b strings.Builder
	if err := WriteOpenMetrics(&b, fams); err != nil {
		t.Fatal(err)
	}
	return b.String()
}

// TestOpenMetricsGolden pins the exposition format byte-for-byte: HELP and
// TYPE lines, the counter _total suffix, label escaping, integral and
// fractional values. Run with -update to regenerate
// testdata/openmetrics.golden after an intentional format change.
func TestOpenMetricsGolden(t *testing.T) {
	got := render(t,
		Family{Name: "ssr_probe_distance", Type: Gauge, Samples: []Sample{{Value: 13}}},
		Family{Name: "ssr_messages_sent", Help: "physical frames put on the air", Type: Counter, Samples: []Sample{
			{Labels: []string{"kind", "ssr:notify"}, Value: 42},
			{Labels: []string{"kind", "ssr:ack"}, Value: 7},
		}},
		Family{Name: "ssr_node_up", Type: Gauge, Samples: []Sample{
			{Labels: []string{"node", "weird\"label\\\n"}, Value: 1},
		}},
		Family{Name: "ssr_phase_seconds", Type: Counter, Samples: []Sample{
			{Labels: []string{"phase", "prepare"}, Value: 0.25},
		}},
		Family{Name: "ssr_never_seen", Help: "a family without samples is left out", Type: Counter},
	)
	golden := filepath.Join("testdata", "openmetrics.golden")
	if *update {
		if err := os.WriteFile(golden, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatalf("read golden (run with -update to create): %v", err)
	}
	if got != string(want) {
		t.Errorf("exposition drifted from golden:\n--- got ---\n%s--- want ---\n%s", got, want)
	}
}

func TestOpenMetricsEndsWithEOF(t *testing.T) {
	if got := render(t); got != "# EOF\n" {
		t.Errorf("empty exposition = %q", got)
	}
}

// TestLabelOrderCanonicalized: the order a caller lists label pairs in must
// not show in the output — labels render sorted by name.
func TestLabelOrderCanonicalized(t *testing.T) {
	a := render(t, Family{Name: "m", Type: Gauge, Samples: []Sample{{Labels: []string{"x", "1", "y", "2"}, Value: 1}}})
	b := render(t, Family{Name: "m", Type: Gauge, Samples: []Sample{{Labels: []string{"y", "2", "x", "1"}, Value: 1}}})
	if a != b || !strings.Contains(a, `m{x="1",y="2"} 1`) {
		t.Errorf("label order leaked into the exposition:\n%s\n%s", a, b)
	}
}

// TestOpenMetricsSorted: families sort by name and samples by label block,
// so two scrapes of the same state are byte-identical whatever order the
// caller (or a map it ranged over) produced them in.
func TestOpenMetricsSorted(t *testing.T) {
	got := render(t,
		Family{Name: "zeta", Type: Counter, Samples: []Sample{{Value: 1}}},
		Family{Name: "alpha", Type: Counter, Samples: []Sample{
			{Labels: []string{"node", "9"}, Value: 1},
			{Labels: []string{"node", "3"}, Value: 1},
		}},
	)
	want := "# TYPE alpha counter\n" +
		"alpha_total{node=\"3\"} 1\n" +
		"alpha_total{node=\"9\"} 1\n" +
		"# TYPE zeta counter\n" +
		"zeta_total 1\n" +
		"# EOF\n"
	if got != want {
		t.Errorf("got:\n%s\nwant:\n%s", got, want)
	}
}

func TestOddLabelPairsPanic(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("an odd label list must panic")
		}
	}()
	render(t, Family{Name: "m", Type: Gauge, Samples: []Sample{{Labels: []string{"x"}, Value: 1}}})
}
