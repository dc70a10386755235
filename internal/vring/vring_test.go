package vring

import (
	"math/rand"
	"testing"
	"testing/quick"

	"repro/internal/graph"
	"repro/internal/ids"
)

func TestRingConstruction(t *testing.T) {
	s := Ring([]ids.ID{5, 1, 3})
	if s[1] != 3 || s[3] != 5 || s[5] != 1 {
		t.Errorf("Ring = %v", s)
	}
	if !s.GloballyConsistent([]ids.ID{1, 3, 5}) {
		t.Error("canonical ring must be globally consistent")
	}
	if s.Classify() != Consistent {
		t.Errorf("Classify = %v", s.Classify())
	}
}

func TestLocallyConsistent(t *testing.T) {
	if !(SuccMap{}).LocallyConsistent() {
		t.Error("empty map is trivially consistent")
	}
	if !(SuccMap{1: 2, 2: 1}).LocallyConsistent() {
		t.Error("2-cycle is locally consistent")
	}
	if (SuccMap{1: 1}).LocallyConsistent() {
		// Self-pointer with 1 node: len<2 short-circuits, so build 2 nodes.
		t.Log("single self-pointer allowed as degenerate")
	}
	if (SuccMap{1: 1, 2: 1}).LocallyConsistent() {
		t.Error("self-successor must fail")
	}
	if (SuccMap{1: 3, 2: 3, 3: 1}).LocallyConsistent() {
		t.Error("3 has two predecessors, 2 has none")
	}
	if (SuccMap{1: 2, 2: 99}).LocallyConsistent() {
		t.Error("dangling successor must fail")
	}
}

func TestLoopyExampleMatchesPaper(t *testing.T) {
	s := LoopyExample()
	// ISPRP's local view: perfectly consistent.
	if !s.LocallyConsistent() {
		t.Fatal("the loopy state must be ISPRP-locally consistent")
	}
	// But globally it is loopy, not consistent.
	if got := s.Classify(); got != Loopy {
		t.Fatalf("Classify = %v, want loopy", got)
	}
	cycles, broken := s.Cycles()
	if len(cycles) != 1 || len(broken) != 0 {
		t.Fatalf("cycles=%v broken=%v", cycles, broken)
	}
	if len(cycles[0]) != len(FigureNodes) {
		t.Errorf("loopy cycle should span all nodes, got %v", cycles[0])
	}
	// The line view exposes it exactly as §3 says: nodes 1 and 4 have two
	// right neighbors, nodes 21 and 25 two left neighbors.
	rep := AnalyzeLine(s.ToGraph())
	wantMultiRight := []ids.ID{1, 4}
	wantMultiLeft := []ids.ID{21, 25}
	if len(rep.MultiRight) != 2 || rep.MultiRight[0] != wantMultiRight[0] || rep.MultiRight[1] != wantMultiRight[1] {
		t.Errorf("MultiRight = %v, want %v", rep.MultiRight, wantMultiRight)
	}
	if len(rep.MultiLeft) != 2 || rep.MultiLeft[0] != wantMultiLeft[0] || rep.MultiLeft[1] != wantMultiLeft[1] {
		t.Errorf("MultiLeft = %v, want %v", rep.MultiLeft, wantMultiLeft)
	}
	if rep.LocallyConsistent() {
		t.Error("line view must NOT be locally consistent for the loopy state")
	}
	if rep.Components != 1 {
		t.Errorf("loopy state is connected, got %d components", rep.Components)
	}
	if rep.Violations() == 0 {
		t.Error("loopy state must show violations")
	}
}

func TestSeparateRingsExampleMatchesPaper(t *testing.T) {
	s := SeparateRingsExample()
	if !s.LocallyConsistent() {
		t.Fatal("separate rings are ISPRP-locally consistent")
	}
	if got := s.Classify(); got != Partitioned {
		t.Fatalf("Classify = %v, want partitioned", got)
	}
	cycles, _ := s.Cycles()
	if len(cycles) != 2 {
		t.Fatalf("want 2 rings, got %v", cycles)
	}
	if cycles[0][0] != 1 || cycles[1][0] != 4 {
		t.Errorf("canonical cycles = %v", cycles)
	}
	// Line view: the virtual graph is disconnected.
	rep := AnalyzeLine(s.ToGraph())
	if rep.Components != 2 {
		t.Errorf("Components = %d, want 2", rep.Components)
	}
}

func TestCyclesBrokenTails(t *testing.T) {
	// 1→2→3→2: node 1 is a broken tail into the 2-3 cycle.
	s := SuccMap{1: 2, 2: 3, 3: 2}
	cycles, broken := s.Cycles()
	if len(cycles) != 1 || len(broken) != 1 || broken[0] != 1 {
		t.Errorf("cycles=%v broken=%v", cycles, broken)
	}
	if s.Classify() != Broken {
		t.Errorf("Classify = %v, want broken", s.Classify())
	}
	// Dangling pointer.
	s2 := SuccMap{1: 2, 2: 99}
	_, broken2 := s2.Cycles()
	if len(broken2) != 2 {
		t.Errorf("broken = %v, want both nodes", broken2)
	}
	// Tail into an already-visited cycle discovered from an earlier start.
	s3 := SuccMap{1: 2, 2: 1, 5: 1}
	cycles3, broken3 := s3.Cycles()
	if len(cycles3) != 1 || len(broken3) != 1 || broken3[0] != 5 {
		t.Errorf("cycles=%v broken=%v", cycles3, broken3)
	}
}

func TestGloballyConsistentRejectsWrongNodeSet(t *testing.T) {
	s := Ring([]ids.ID{1, 2, 3})
	if s.GloballyConsistent([]ids.ID{1, 2}) {
		t.Error("size mismatch must fail")
	}
	if s.GloballyConsistent([]ids.ID{1, 2, 4}) {
		t.Error("membership mismatch must fail")
	}
	if !s.GloballyConsistent([]ids.ID{3, 2, 1}) {
		t.Error("order of the query slice must not matter")
	}
}

func TestToGraph(t *testing.T) {
	s := Ring([]ids.ID{1, 2, 3, 4})
	g := s.ToGraph()
	if !g.IsSortedRing() {
		t.Error("consistent ring should convert to the sorted ring graph")
	}
}

func TestConsistencyString(t *testing.T) {
	names := map[Consistency]string{
		Consistent: "consistent", Loopy: "loopy",
		Partitioned: "partitioned", Broken: "broken", Consistency(42): "unknown",
	}
	for c, want := range names {
		if c.String() != want {
			t.Errorf("%d.String() = %q, want %q", c, c.String(), want)
		}
	}
}

func TestAnalyzeLineOnPerfectLine(t *testing.T) {
	g := graph.Line([]ids.ID{1, 4, 9, 13})
	rep := AnalyzeLine(g)
	if !rep.LocallyConsistent() {
		t.Errorf("perfect line must be locally consistent: %s", rep)
	}
	if rep.Violations() != 0 {
		t.Errorf("Violations = %d, want 0", rep.Violations())
	}
	if len(rep.EmptyLeft) != 1 || rep.EmptyLeft[0] != 1 {
		t.Errorf("EmptyLeft = %v, want [1]", rep.EmptyLeft)
	}
	if len(rep.EmptyRight) != 1 || rep.EmptyRight[0] != 13 {
		t.Errorf("EmptyRight = %v, want [13]", rep.EmptyRight)
	}
	if !g.IsLinearized() {
		t.Error("perfect line is globally consistent")
	}
}

// lineDistanceRef is LineDistance as it was first written: a map of the
// consecutive edges and a pass over Edges(). It is the reference the
// one-walk version is held to.
func lineDistanceRef(g *graph.Graph) (missing, surplus int) {
	nodes := g.Nodes()
	if len(nodes) < 2 {
		return 0, 0
	}
	consecutive := make(map[graph.Edge]bool, len(nodes)-1)
	for i := 0; i+1 < len(nodes); i++ {
		consecutive[graph.NewEdge(nodes[i], nodes[i+1])] = true
		if !g.HasEdge(nodes[i], nodes[i+1]) {
			missing++
		}
	}
	wrap := graph.NewEdge(nodes[0], nodes[len(nodes)-1])
	for _, e := range g.Edges() {
		if !consecutive[e] && e != wrap {
			surplus++
		}
	}
	return missing, surplus
}

// TestLineDistanceMatchesReference compares LineDistance with the map-based
// reference on random graphs of 0…40 nodes: near-lines (each consecutive
// edge kept with a random probability) plus random chords, with the wrap
// edge forced in or out, and some nodes left isolated. n = 2 is where the
// wrap edge is the consecutive pair, which must not be discounted twice.
func TestLineDistanceMatchesReference(t *testing.T) {
	r := rand.New(rand.NewSource(41))
	var wrapped, twoWithEdge, isolated int
	for trial := 0; trial < 1230; trial++ {
		n := trial % 41
		nodes := graph.MakeIDs(n, graph.RandomIDs, r)
		g := graph.NewWithNodes(nodes...)
		sorted := g.Nodes()
		keepLine, chords := r.Float64(), r.Float64()*0.3
		for i := 0; i+1 < n; i++ {
			if r.Float64() < keepLine {
				g.AddEdge(sorted[i], sorted[i+1])
			}
		}
		for i := 0; i < n; i++ {
			for j := i + 2; j < n; j++ {
				if r.Float64() < chords*chords {
					g.AddEdge(sorted[i], sorted[j])
				}
			}
		}
		if n >= 2 {
			if r.Intn(2) == 0 {
				g.AddEdge(sorted[0], sorted[n-1])
			} else {
				g.RemoveEdge(sorted[0], sorted[n-1])
			}
			switch {
			case n == 2 && g.NumEdges() == 1:
				twoWithEdge++
			case n >= 3 && g.HasEdge(sorted[0], sorted[n-1]):
				wrapped++
			}
		}
		for _, v := range sorted {
			if g.Degree(v) == 0 {
				isolated++
				break
			}
		}
		gm, gs := LineDistance(g)
		wm, ws := lineDistanceRef(g)
		if gm != wm || gs != ws {
			t.Fatalf("trial %d (n=%d, edges %v): LineDistance = (%d, %d), reference (%d, %d)",
				trial, n, g.Edges(), gm, gs, wm, ws)
		}
	}
	if wrapped == 0 || twoWithEdge == 0 || isolated == 0 {
		t.Errorf("coverage: %d wrapped graphs, %d two-node graphs with their edge, %d with an isolated node",
			wrapped, twoWithEdge, isolated)
	}
}

func TestAnalyzeLineViolationsCountsEmptySides(t *testing.T) {
	// Two disjoint line segments: 1-2 and 5-6. Two EmptyLeft (1,5), two
	// EmptyRight (2,6): violations = 2.
	g := graph.New()
	g.AddEdge(1, 2)
	g.AddEdge(5, 6)
	rep := AnalyzeLine(g)
	if rep.Violations() != 2 {
		t.Errorf("Violations = %d, want 2", rep.Violations())
	}
	if rep.LocallyConsistent() {
		t.Error("two segments are not a consistent line")
	}
}

func TestTheoremLocalPlusConnectedIsGlobal(t *testing.T) {
	// The §3 theorem, checked over random connected graphs: whenever the
	// line view is locally consistent AND connected, the graph is exactly
	// the sorted line.
	r := rand.New(rand.NewSource(17))
	for trial := 0; trial < 50; trial++ {
		n := 3 + r.Intn(20)
		nodes := graph.MakeIDs(n, graph.RandomIDs, r)
		g := graph.ErdosRenyi(nodes, 0.3, r)
		rep := AnalyzeLine(g)
		if rep.LocallyConsistent() && rep.Components == 1 {
			if !g.IsLinearized() {
				t.Fatalf("counterexample to the §3 theorem: %v", g.Edges())
			}
		}
	}
	// And positively: the sorted line always satisfies the premise.
	nodes := graph.MakeIDs(10, graph.RandomIDs, r)
	line := graph.Line(nodes)
	rep := AnalyzeLine(line)
	if !(rep.LocallyConsistent() && rep.Components == 1 && line.IsLinearized()) {
		t.Error("sorted line must satisfy both premise and conclusion")
	}
}

func TestCloneIndependence(t *testing.T) {
	s := Ring([]ids.ID{1, 2, 3})
	c := s.Clone()
	c[1] = 99
	if s[1] == 99 {
		t.Error("Clone aliases")
	}
}

func TestClassifyDegenerate(t *testing.T) {
	if (SuccMap{}).Classify() != Consistent {
		t.Error("empty map is consistent")
	}
	if (SuccMap{1: 1}).Classify() != Consistent {
		t.Error("single node is consistent (degenerate)")
	}
}

func TestRandomPermutationClassifyProperty(t *testing.T) {
	// Property: for a random permutation successor map, Classify never
	// reports Broken, and reports Consistent iff the permutation is the
	// sorted rotation.
	f := func(seed int64, nRaw uint8) bool {
		n := 2 + int(nRaw%20)
		r := rand.New(rand.NewSource(seed))
		nodes := graph.MakeIDs(n, graph.RandomIDs, r)
		perm := r.Perm(n)
		s := make(SuccMap, n)
		for i, v := range nodes {
			if perm[i] == i {
				return true // skip self-pointers: not a valid ring state
			}
			s[v] = nodes[perm[i]]
		}
		got := s.Classify()
		if got == Broken {
			return false
		}
		want := Ring(nodes)
		isRing := true
		for v := range s {
			if s[v] != want[v] {
				isRing = false
				break
			}
		}
		return (got == Consistent) == isRing
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func TestLoopyStateGeneralized(t *testing.T) {
	r := rand.New(rand.NewSource(5))
	nodes := graph.MakeIDs(31, graph.RandomIDs, r) // prime size: any step is coprime
	for _, step := range []int{2, 3, 5} {
		s := LoopyState(nodes, step)
		if !s.LocallyConsistent() {
			t.Errorf("step %d: must be locally consistent", step)
		}
		if got := s.Classify(); got != Loopy {
			t.Errorf("step %d: Classify = %v, want loopy", step, got)
		}
	}
	// Step 1 is the correct sorted ring.
	if got := LoopyState(nodes, 1).Classify(); got != Consistent {
		t.Errorf("step 1 should be consistent, got %v", got)
	}
	if len(LoopyState(nil, 2)) != 0 {
		t.Error("empty node set should give empty map")
	}
	// The paper's Figure 1 is exactly LoopyState(FigureNodes, 2).
	want := LoopyExample()
	got := LoopyState(FigureNodes, 2)
	for v, succ := range want {
		if got[v] != succ {
			t.Fatalf("LoopyState(FigureNodes,2) diverges from Fig.1 at %v", v)
		}
	}
}

func TestPartitionedStateGeneralized(t *testing.T) {
	r := rand.New(rand.NewSource(7))
	nodes := graph.MakeIDs(24, graph.RandomIDs, r)
	for _, k := range []int{2, 3, 4} {
		s := PartitionedState(nodes, k)
		if got := s.Classify(); got != Partitioned {
			t.Errorf("k=%d: Classify = %v, want partitioned", k, got)
		}
		cycles, _ := s.Cycles()
		if len(cycles) != k {
			t.Errorf("k=%d: got %d rings", k, len(cycles))
		}
	}
	if got := PartitionedState(nodes, 1).Classify(); got != Consistent {
		t.Errorf("k=1 should be the sorted ring, got %v", got)
	}
	if got := PartitionedState(nodes, 0).Classify(); got != Consistent {
		t.Errorf("k=0 clamps to 1, got %v", got)
	}
}
