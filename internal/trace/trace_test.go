package trace_test

import (
	"strings"
	"testing"

	"repro/internal/graph"
	"repro/internal/ids"
	"repro/internal/linearize"
	"repro/internal/sim"
	"repro/internal/trace"
	"repro/internal/vring"
)

func TestRenderRingLoopy(t *testing.T) {
	out := trace.RenderRing(vring.LoopyExample())
	if !strings.Contains(out, "ring 1:") {
		t.Errorf("missing ring header: %q", out)
	}
	if strings.Contains(out, "ring 2:") {
		t.Error("loopy state is a single (wrong) ring")
	}
	if !strings.HasPrefix(out, "ring 1: 1 -> 9 -> 18 -> 25 -> 4 -> 13 -> 21 -> (1)") {
		t.Errorf("loopy cycle rendering: %q", out)
	}
}

func TestRenderRingSeparate(t *testing.T) {
	out := trace.RenderRing(vring.SeparateRingsExample())
	if !strings.Contains(out, "ring 1:") || !strings.Contains(out, "ring 2:") {
		t.Errorf("want two rings: %q", out)
	}
}

func TestRenderRingBroken(t *testing.T) {
	out := trace.RenderRing(vring.SuccMap{1: 2, 2: 3, 3: 2})
	if !strings.Contains(out, "broken: [1]") {
		t.Errorf("broken tail missing: %q", out)
	}
}

func TestRenderLineFlagsViolations(t *testing.T) {
	g := vring.LoopyExample().ToGraph()
	out := trace.RenderLine(g)
	// §3's diagnosis: 1 and 4 have two right neighbors, 21 and 25 two left.
	if strings.Count(out, "!multi-right") != 2 {
		t.Errorf("want 2 multi-right flags:\n%s", out)
	}
	if strings.Count(out, "!multi-left") != 2 {
		t.Errorf("want 2 multi-left flags:\n%s", out)
	}
	line := graph.Line(vring.FigureNodes)
	clean := trace.RenderLine(line)
	if strings.Contains(clean, "!multi") {
		t.Errorf("perfect line must not be flagged:\n%s", clean)
	}
	if !strings.Contains(clean, "{}") {
		t.Error("extremal nodes should show empty sides")
	}
}

func TestRenderArcs(t *testing.T) {
	g := graph.Line([]ids.ID{1, 4, 9})
	g.AddEdge(1, 9)
	out := trace.RenderArcs(g)
	lines := strings.Split(strings.TrimRight(out, "\n"), "\n")
	if len(lines) != 4 { // axis + 3 edges
		t.Fatalf("arc lines = %d:\n%s", len(lines), out)
	}
	if !strings.Contains(lines[0], "1") || !strings.Contains(lines[0], "9") {
		t.Errorf("axis row = %q", lines[0])
	}
	// Edges sorted by span: short edges first, the long {1,9} last.
	if len(lines[3]) <= len(lines[1]) {
		t.Errorf("long edge should render longest:\n%s", out)
	}
	if !strings.Contains(lines[1], "o") || !strings.Contains(lines[3], "=") {
		t.Errorf("arc glyphs missing:\n%s", out)
	}
}

func TestRoundTraceWithEngine(t *testing.T) {
	// Drive a real linearization run and capture the Fig. 3 trace.
	g := vring.LoopyExample().ToGraph()
	var rt trace.RoundTrace
	rt.ObserveInitial(g)
	cfg := linearize.Config{
		Variant:   linearize.Pure,
		Scheduler: sim.Synchronous,
		OnRound:   rt.Observe,
	}
	stats, final := linearize.Run(g, cfg)
	if !stats.Converged {
		t.Fatalf("run did not converge: %s", stats)
	}
	if rt.Len() != stats.Rounds+1 {
		t.Errorf("frames = %d, want rounds+initial = %d", rt.Len(), stats.Rounds+1)
	}
	out := rt.String()
	if !strings.Contains(out, "initial state") || !strings.Contains(out, "after round 1") {
		t.Errorf("trace headers missing:\n%s", out)
	}
	if !final.IsLinearized() {
		t.Error("final graph should be the line")
	}
}
