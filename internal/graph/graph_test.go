package graph

import (
	"math/rand"
	"testing"
	"testing/quick"

	"repro/internal/ids"
)

func TestAddRemoveEdge(t *testing.T) {
	g := New()
	if !g.AddEdge(1, 2) {
		t.Error("AddEdge(1,2) should be newly added")
	}
	if g.AddEdge(1, 2) || g.AddEdge(2, 1) {
		t.Error("duplicate edge should not be newly added")
	}
	if g.AddEdge(3, 3) {
		t.Error("self-loop must be rejected")
	}
	if !g.HasEdge(1, 2) || !g.HasEdge(2, 1) {
		t.Error("edge should be undirected")
	}
	if g.NumEdges() != 1 || g.NumNodes() != 2 {
		t.Errorf("NumEdges=%d NumNodes=%d, want 1,2", g.NumEdges(), g.NumNodes())
	}
	if !g.RemoveEdge(2, 1) {
		t.Error("RemoveEdge should report present")
	}
	if g.RemoveEdge(1, 2) {
		t.Error("RemoveEdge twice should report absent")
	}
	if g.HasEdge(1, 2) {
		t.Error("edge should be gone")
	}
}

func TestRemoveNode(t *testing.T) {
	g := New()
	g.AddEdge(1, 2)
	g.AddEdge(2, 3)
	g.RemoveNode(2)
	if g.HasNode(2) {
		t.Error("node 2 should be gone")
	}
	if g.HasEdge(1, 2) || g.HasEdge(3, 2) {
		t.Error("incident edges should be gone")
	}
	if g.NumNodes() != 2 || g.NumEdges() != 0 {
		t.Errorf("NumNodes=%d NumEdges=%d, want 2,0", g.NumNodes(), g.NumEdges())
	}
	g.RemoveNode(99) // absent: no-op
}

func TestNodesAndEdgesDeterministic(t *testing.T) {
	g := New()
	g.AddEdge(5, 1)
	g.AddEdge(3, 5)
	g.AddEdge(1, 3)
	nodes := g.Nodes()
	want := []ids.ID{1, 3, 5}
	for i := range want {
		if nodes[i] != want[i] {
			t.Fatalf("Nodes = %v, want %v", nodes, want)
		}
	}
	edges := g.Edges()
	wantE := []Edge{{1, 3}, {1, 5}, {3, 5}}
	if len(edges) != len(wantE) {
		t.Fatalf("Edges = %v, want %v", edges, wantE)
	}
	for i := range wantE {
		if edges[i] != wantE[i] {
			t.Fatalf("Edges = %v, want %v", edges, wantE)
		}
	}
}

func TestNewEdgeCanonical(t *testing.T) {
	if NewEdge(5, 2) != (Edge{2, 5}) {
		t.Error("NewEdge should canonicalize order")
	}
	if NewEdge(2, 5).String() != "{2,5}" {
		t.Errorf("Edge.String = %q", NewEdge(2, 5).String())
	}
}

func TestBFSAndShortestPath(t *testing.T) {
	g := Line([]ids.ID{1, 2, 3, 4, 5})
	dist := g.BFSFrom(1)
	if dist[5] != 4 || dist[1] != 0 || dist[3] != 2 {
		t.Errorf("BFS distances wrong: %v", dist)
	}
	path := g.ShortestPath(1, 5)
	if len(path) != 5 || path[0] != 1 || path[4] != 5 {
		t.Errorf("ShortestPath = %v", path)
	}
	if p := g.ShortestPath(1, 1); len(p) != 1 || p[0] != 1 {
		t.Errorf("ShortestPath to self = %v", p)
	}
	g2 := NewWithNodes(1, 99)
	g2.AddEdge(1, 2)
	if g2.ShortestPath(1, 99) != nil {
		t.Error("unreachable dst should give nil path")
	}
	if g2.ShortestPath(1, 1234) != nil {
		t.Error("absent dst should give nil path")
	}
}

func TestConnectedComponents(t *testing.T) {
	g := New()
	g.AddEdge(1, 2)
	g.AddEdge(3, 4)
	if g.Connected() {
		t.Error("two components should not be connected")
	}
	comps := g.Components()
	if len(comps) != 2 {
		t.Fatalf("Components = %v", comps)
	}
	if comps[0][0] != 1 || comps[1][0] != 3 {
		t.Errorf("Components order wrong: %v", comps)
	}
	g.AddEdge(2, 3)
	if !g.Connected() {
		t.Error("should be connected now")
	}
	if !New().Connected() {
		t.Error("empty graph counts as connected")
	}
}

func TestDiameter(t *testing.T) {
	g := Line([]ids.ID{1, 2, 3, 4})
	if d := g.Diameter(); d != 3 {
		t.Errorf("line diameter = %d, want 3", d)
	}
	r := Ring([]ids.ID{1, 2, 3, 4, 5, 6})
	if d := r.Diameter(); d != 3 {
		t.Errorf("ring diameter = %d, want 3", d)
	}
	disc := NewWithNodes(1, 2)
	if d := disc.Diameter(); d != -1 {
		t.Errorf("disconnected diameter = %d, want -1", d)
	}
	if d := New().Diameter(); d != -1 {
		t.Errorf("empty diameter = %d, want -1", d)
	}
}

func TestIsLinearizedAndSortedRing(t *testing.T) {
	line := Line([]ids.ID{1, 4, 9, 13})
	if !line.IsLinearized() {
		t.Error("line should be linearized")
	}
	if line.IsSortedRing() {
		t.Error("line is not a closed ring")
	}
	ring := Ring([]ids.ID{1, 4, 9, 13})
	if ring.IsLinearized() {
		t.Error("ring has the wrap edge, not a pure line")
	}
	if !ring.IsSortedRing() {
		t.Error("ring should be a sorted ring")
	}
	// Extra chord breaks both.
	chord := Ring([]ids.ID{1, 4, 9, 13})
	chord.AddEdge(1, 9)
	if chord.IsSortedRing() || chord.IsLinearized() {
		t.Error("chord should break both predicates")
	}
	// A line with right count but wrong wiring.
	bad := NewWithNodes(1, 2, 3)
	bad.AddEdge(1, 3)
	bad.AddEdge(1, 2)
	if bad.IsLinearized() {
		t.Error("1-3,1-2 is not the sorted line")
	}
	// Degenerate sizes.
	if !New().IsLinearized() || !New().IsSortedRing() {
		t.Error("empty graph is trivially both")
	}
	single := NewWithNodes(7)
	if !single.IsLinearized() || !single.IsSortedRing() {
		t.Error("single node is trivially both")
	}
	pair := Line([]ids.ID{3, 8})
	if !pair.IsLinearized() || !pair.IsSortedRing() {
		t.Error("two connected nodes are both line and ring")
	}
	super := Line([]ids.ID{1, 2, 3, 4})
	super.AddEdge(1, 4)
	if !super.SupersetOfLine() {
		t.Error("line+chord is a superset of the line")
	}
	super.RemoveEdge(2, 3)
	if super.SupersetOfLine() {
		t.Error("missing consecutive edge breaks SupersetOfLine")
	}
}

func TestCloneEqual(t *testing.T) {
	g := Ring([]ids.ID{1, 2, 3, 4})
	c := g.Clone()
	if !g.Equal(c) || !c.Equal(g) {
		t.Error("clone should equal original")
	}
	c.AddEdge(1, 3)
	if g.Equal(c) {
		t.Error("modified clone should differ")
	}
	if g.HasEdge(1, 3) {
		t.Error("clone must not alias original")
	}
	h := Ring([]ids.ID{1, 2, 3, 5})
	if g.Equal(h) {
		t.Error("different node sets should differ")
	}
}

func TestDegreeStats(t *testing.T) {
	g := Star([]ids.ID{10, 1, 2, 3})
	if g.MaxDegree() != 3 {
		t.Errorf("star MaxDegree = %d, want 3", g.MaxDegree())
	}
	if got := g.AvgDegree(); got != 1.5 {
		t.Errorf("star AvgDegree = %f, want 1.5", got)
	}
	if New().MaxDegree() != 0 || New().AvgDegree() != 0 {
		t.Error("empty graph degree stats should be 0")
	}
}

func TestGenerators(t *testing.T) {
	r := rand.New(rand.NewSource(1))
	nodes := MakeIDs(60, RandomIDs, r)
	if len(nodes) != 60 {
		t.Fatalf("MakeIDs returned %d ids", len(nodes))
	}
	seen := ids.NewSet()
	for _, v := range nodes {
		if !seen.Add(v) {
			t.Fatal("MakeIDs produced a duplicate")
		}
	}

	type gen struct {
		name string
		g    *Graph
	}
	grid, err := Grid(nodes[:36], 6, 6)
	if err != nil {
		t.Fatal(err)
	}
	ud, pos := UnitDisk(nodes, 0.25, r)
	if len(pos) != 60 {
		t.Errorf("UnitDisk positions = %d, want 60", len(pos))
	}
	gens := []gen{
		{"line", Line(nodes)},
		{"ring", Ring(nodes)},
		{"star", Star(nodes)},
		{"grid", grid},
		{"er", ErdosRenyi(nodes, 0.1, r)},
		{"regular", RandomRegular(nodes, 4, r)},
		{"powerlaw", PowerLaw(nodes, 2.0, r)},
		{"barabasi", PreferentialAttachment(nodes, 2, r)},
		{"unitdisk", ud},
	}
	for _, gn := range gens {
		if !gn.g.Connected() {
			t.Errorf("%s generator produced a disconnected graph", gn.name)
		}
		if gn.g.NumNodes() == 0 {
			t.Errorf("%s generator produced an empty graph", gn.name)
		}
	}
}

func TestGridValidation(t *testing.T) {
	if _, err := Grid([]ids.ID{1, 2, 3}, 2, 2); err == nil {
		t.Error("Grid with wrong node count should error")
	}
	g, err := Grid([]ids.ID{1, 2, 3, 4}, 2, 2)
	if err != nil {
		t.Fatal(err)
	}
	if g.NumEdges() != 4 {
		t.Errorf("2x2 grid should have 4 edges, got %d", g.NumEdges())
	}
}

func TestRandomRegularDegrees(t *testing.T) {
	r := rand.New(rand.NewSource(7))
	nodes := MakeIDs(100, RandomIDs, r)
	g := RandomRegular(nodes, 4, r)
	for _, v := range g.Nodes() {
		d := g.Degree(v)
		if d < 1 || d > 8 {
			t.Errorf("node degree %d far from regular target 4", d)
		}
	}
	if g.AvgDegree() < 3 || g.AvgDegree() > 5 {
		t.Errorf("avg degree %f far from 4", g.AvgDegree())
	}
}

func TestGenerateAllTopologies(t *testing.T) {
	for _, topo := range AllTopologies() {
		g, err := Generate(topo, 50, RandomIDs, 42)
		if err != nil {
			t.Errorf("Generate(%s) error: %v", topo, err)
			continue
		}
		if !g.Connected() {
			t.Errorf("Generate(%s) produced disconnected graph", topo)
		}
	}
	if _, err := Generate("nope", 10, RandomIDs, 1); err == nil {
		t.Error("unknown topology should error")
	}
}

func TestGenerateDeterministic(t *testing.T) {
	g1, _ := Generate(TopoER, 40, RandomIDs, 99)
	g2, _ := Generate(TopoER, 40, RandomIDs, 99)
	if !g1.Equal(g2) {
		t.Error("same seed should give identical graphs")
	}
}

func TestMakeIDsSequential(t *testing.T) {
	r := rand.New(rand.NewSource(1))
	got := MakeIDs(4, SequentialIDs, r)
	want := []ids.ID{1, 2, 3, 4}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("MakeIDs sequential = %v", got)
		}
	}
}

func TestRandomSpanningConnectedProperty(t *testing.T) {
	// Property: for any set of isolated nodes, RandomSpanningConnected
	// yields a connected graph without touching the node set.
	f := func(raw []uint16) bool {
		if len(raw) == 0 {
			return true
		}
		if len(raw) > 40 {
			raw = raw[:40]
		}
		g := New()
		for _, x := range raw {
			g.AddNode(ids.ID(x))
		}
		n := g.NumNodes()
		g.RandomSpanningConnected(rand.New(rand.NewSource(3)))
		return g.Connected() && g.NumNodes() == n
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Error(err)
	}
}

// referenceSpanningConnected is RandomSpanningConnected as first written:
// recompute Components() after every added edge. Quadratic, and the
// definition the incremental version must reproduce draw for draw.
func referenceSpanningConnected(g *Graph, r *rand.Rand) {
	comps := g.Components()
	for len(comps) > 1 {
		a := comps[0][r.Intn(len(comps[0]))]
		c2 := comps[1+r.Intn(len(comps)-1)]
		b := c2[r.Intn(len(c2))]
		g.AddEdge(a, b)
		comps = g.Components()
	}
}

func TestRandomSpanningConnectedMatchesReference(t *testing.T) {
	inputs := map[string]func(seed int64) *Graph{
		// p well below the ln(n)/n connectivity threshold: many components.
		"er": func(seed int64) *Graph { return randomTestGraph(60+int(seed%40), 0.012, seed) },
		"powerlaw": func(seed int64) *Graph {
			r := rand.New(rand.NewSource(seed))
			return powerLawPairing(MakeIDs(400+int(seed%200), RandomIDs, r), 2.0, r)
		},
	}
	for name, input := range inputs {
		for seed := int64(1); seed <= 200; seed++ {
			got, want := input(seed), input(seed)
			if got.Connected() {
				continue
			}
			rGot, rWant := rand.New(rand.NewSource(seed)), rand.New(rand.NewSource(seed))
			got.RandomSpanningConnected(rGot)
			referenceSpanningConnected(want, rWant)
			if !got.Equal(want) {
				t.Fatalf("%s seed %d: graph differs from the reference loop's", name, seed)
			}
			if rGot.Int63() != rWant.Int63() {
				t.Fatalf("%s seed %d: a different number of values was drawn", name, seed)
			}
			if !got.Connected() {
				t.Fatalf("%s seed %d: not connected", name, seed)
			}
		}
	}
}

func TestLinePathProperty(t *testing.T) {
	// Property: a line over k distinct ids has k-1 edges, is connected, and
	// is linearized.
	f := func(raw []uint32) bool {
		set := ids.NewSet()
		for _, x := range raw {
			set.Add(ids.ID(x))
		}
		nodes := set.Sorted()
		g := Line(nodes)
		if len(nodes) == 0 {
			return g.NumEdges() == 0
		}
		return g.NumEdges() == len(nodes)-1 && g.Connected() && g.IsLinearized()
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}
