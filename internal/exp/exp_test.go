package exp

import (
	"strings"
	"testing"

	"repro/internal/graph"
)

func TestFig1Loopy(t *testing.T) {
	rep := Harness{}.Fig1Loopy(1)
	out := rep.String()
	if !strings.Contains(out, "isprp (no flood)") || !strings.Contains(out, "linearization") {
		t.Fatalf("missing rows:\n%s", out)
	}
	// The no-flood row must show false; flood and linearization true.
	lines := strings.Split(out, "\n")
	check := func(prefix string, want string) {
		for _, l := range lines {
			if strings.HasPrefix(l, prefix) {
				if !strings.Contains(l, want) {
					t.Errorf("row %q should contain %q: %q", prefix, want, l)
				}
				return
			}
		}
		t.Errorf("row %q not found", prefix)
	}
	check("isprp (no flood)", "false")
	check("isprp (flood)", "true")
	check("linearization", "true")
	if !strings.Contains(out, "!multi-right") {
		t.Error("line-view rendering should flag the §3 violations")
	}
}

func TestFig2SeparateRings(t *testing.T) {
	rep := Harness{}.Fig2SeparateRings(1)
	out := rep.String()
	if !strings.Contains(out, "ring 1:") || !strings.Contains(out, "ring 2:") {
		t.Errorf("should render two rings:\n%s", out)
	}
	for _, note := range rep.Notes {
		if strings.Contains(note, "UNEXPECTED") {
			t.Errorf("merge failed: %s", note)
		}
	}
	if !strings.Contains(out, "true") {
		t.Error("at least one mechanism should merge")
	}
}

func TestFig3Trace(t *testing.T) {
	rep := Harness{}.Fig3Trace()
	if !strings.Contains(rep.Text, "initial state") {
		t.Error("trace missing initial frame")
	}
	if !strings.Contains(rep.Table.String(), "true") {
		t.Errorf("pure linearization should converge:\n%s", rep.Table)
	}
	rep2 := Harness{}.Fig3ClosedRing()
	if !strings.Contains(rep2.Table.String(), "true") {
		t.Errorf("ring closure should complete:\n%s", rep2.Table)
	}
}

func TestPowerLawConvergence(t *testing.T) {
	rep := Harness{}.PowerLawConvergence([]int{200, 400}, 2)
	out := rep.String()
	if !strings.Contains(out, "consistent with the paper") {
		t.Errorf("expected the <39 rounds confirmation:\n%s", out)
	}
}

func TestConvergenceShape(t *testing.T) {
	rep := Harness{}.ConvergenceShape([]int{100, 200}, graph.TopoER, 2)
	if rep.Table.NumRows() != 6 {
		t.Errorf("want 3 variants × 2 sizes rows, got %d", rep.Table.NumRows())
	}
	if !strings.Contains(rep.Text, "growth exponent") {
		t.Error("missing exponent table")
	}
}

func TestStateSize(t *testing.T) {
	rep := Harness{}.StateSize([]int{100}, 2)
	if rep.Table.NumRows() != 2 {
		t.Errorf("rows = %d", rep.Table.NumRows())
	}
}

func TestSelfStabilization(t *testing.T) {
	rep := Harness{}.SelfStabilization(60, 3, 3)
	out := rep.String()
	if !strings.Contains(out, "recovery") {
		t.Errorf("missing recovery row:\n%s", out)
	}
	if strings.Contains(out, "0/") {
		t.Errorf("some phase failed to recover:\n%s", out)
	}
}

func TestSchedulerAblation(t *testing.T) {
	rep := Harness{}.SchedulerAblation(40, 2)
	if rep.Table.NumRows() != 6 {
		t.Errorf("want 3 variants × 2 schedulers, got %d", rep.Table.NumRows())
	}
	if strings.Contains(rep.String(), "0/2") {
		t.Errorf("a scheduler failed to converge:\n%s", rep)
	}
}

func TestMessageCost(t *testing.T) {
	rep := Harness{}.MessageCost([]int{16}, graph.TopoER, 2)
	out := rep.String()
	if !strings.Contains(out, "isprp+flood") || !strings.Contains(out, "linearization") {
		t.Fatalf("missing protocols:\n%s", out)
	}
	if strings.Contains(out, "0/2") {
		t.Errorf("a protocol failed to converge:\n%s", out)
	}
}

func TestMessageBreakdown(t *testing.T) {
	rep := Harness{}.MessageBreakdown(16, graph.TopoER, 3)
	out := rep.String()
	if !strings.Contains(out, "ssr:notify") || !strings.Contains(out, "TOTAL") {
		t.Errorf("missing kinds:\n%s", out)
	}
	if strings.Contains(out, "flood") {
		t.Error("linearization must have no flood kind")
	}
}

func TestRouting(t *testing.T) {
	rep := Harness{}.Routing(14, graph.TopoER, 60, 5)
	out := strings.Join(strings.Fields(rep.String()), " ")
	if !strings.Contains(out, "success rate 1.00") {
		t.Errorf("expected perfect delivery:\n%s", rep)
	}
}

func TestCacheOccupancy(t *testing.T) {
	rep := Harness{}.CacheOccupancy(20, graph.TopoER, 7)
	if !strings.Contains(rep.String(), "occupied left intervals") {
		t.Errorf("missing occupancy rows:\n%s", rep)
	}
}

func TestRingClosure(t *testing.T) {
	rep := Harness{}.RingClosure(14, graph.TopoER, 2)
	out := rep.String()
	if !strings.Contains(out, "both directions") || !strings.Contains(out, "clockwise only") {
		t.Errorf("missing rows:\n%s", out)
	}
}

func TestVRRBootstrap(t *testing.T) {
	rep := Harness{}.VRRBootstrap(14, graph.TopoER, 2)
	out := rep.String()
	if !strings.Contains(out, "vrr (paths)") || !strings.Contains(out, "ssr (routes)") {
		t.Fatalf("missing rows:\n%s", out)
	}
	if strings.Contains(out, "0/2") {
		t.Errorf("a protocol failed:\n%s", out)
	}
}

func TestChurnRecovery(t *testing.T) {
	rep := Harness{}.ChurnRecovery(20, graph.TopoER, 2, 9)
	out := rep.String()
	if !strings.Contains(out, "recovery") {
		t.Errorf("missing recovery row:\n%s", out)
	}
	if strings.Count(out, "true") < 2 {
		t.Errorf("bootstrap or recovery failed:\n%s", out)
	}
}

func TestTeardownAblation(t *testing.T) {
	rep := Harness{}.TeardownAblation(16, graph.TopoER, 2)
	if rep.Table.NumRows() != 2 {
		t.Errorf("rows = %d", rep.Table.NumRows())
	}
	if strings.Contains(rep.String(), "0/2") {
		t.Errorf("an ablation arm failed:\n%s", rep)
	}
}

func TestMobilityRecovery(t *testing.T) {
	rep := Harness{}.MobilityRecovery(16, 800, 0.02, 2)
	out := rep.String()
	if !strings.Contains(out, "2/2 runs reconverged") {
		t.Errorf("mobility recovery failed:\n%s", out)
	}
}

func TestScaledLoopy(t *testing.T) {
	rep := Harness{}.ScaledLoopy([]int{15, 31}, 2, 3)
	out := rep.String()
	if !strings.Contains(out, "isprp (no flood)") {
		t.Fatalf("missing baseline row:\n%s", out)
	}
	// Every linearization row resolves; the ISPRP row must not.
	lines := strings.Split(out, "\n")
	for _, l := range lines {
		if strings.Contains(l, "linearization") && !strings.Contains(l, "true") {
			t.Errorf("linearization failed a size: %q", l)
		}
		if strings.Contains(l, "isprp") && strings.Contains(l, "true") {
			t.Errorf("isprp without flood must stay stuck: %q", l)
		}
	}
}

func TestDegreeSweep(t *testing.T) {
	rep := Harness{}.DegreeSweep(80, []int{3, 6}, 2)
	if rep.Table.NumRows() != 4 {
		t.Errorf("rows = %d, want 2 degrees × 2 variants", rep.Table.NumRows())
	}
}

func TestDiameterSweep(t *testing.T) {
	rep := Harness{}.DiameterSweep(49, 2)
	out := rep.String()
	for _, want := range []string{"shuffled-path", "grid", "regular4", "star"} {
		if !strings.Contains(out, want) {
			t.Errorf("missing topology %s:\n%s", want, out)
		}
	}
}

func TestReportCSV(t *testing.T) {
	rep := Harness{}.DiameterSweep(25, 1)
	csv := rep.CSV()
	if !strings.HasPrefix(csv, "topology,diameter,variant,rounds mean") {
		t.Errorf("csv header = %q", strings.SplitN(csv, "\n", 2)[0])
	}
	if (Report{}).CSV() != "" {
		t.Error("tableless report should render empty CSV")
	}
}
