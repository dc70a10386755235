package graph

import (
	"math/rand"
	"testing"

	"repro/internal/ids"
)

// randomTestGraph builds a messy random graph with isolated nodes included.
func randomTestGraph(n int, p float64, seed int64) *Graph {
	r := rand.New(rand.NewSource(seed))
	nodes := MakeIDs(n, RandomIDs, r)
	g := NewWithNodes(nodes...)
	for i := 0; i < n; i++ {
		for j := i + 1; j < n; j++ {
			if r.Float64() < p {
				g.AddEdge(nodes[i], nodes[j])
			}
		}
	}
	return g
}

func TestCSRMatchesGraph(t *testing.T) {
	g := randomTestGraph(200, 0.05, 7)
	c := NewCSR(g)
	if c.NumNodes() != g.NumNodes() {
		t.Fatalf("NumNodes: csr %d graph %d", c.NumNodes(), g.NumNodes())
	}
	if c.NumEdges() != g.NumEdges() {
		t.Fatalf("NumEdges: csr %d graph %d", c.NumEdges(), g.NumEdges())
	}
	nodes := g.Nodes()
	for i, v := range nodes {
		if c.Node(i) != v {
			t.Fatalf("Node(%d) = %s, want %s", i, c.Node(i), v)
		}
		if idx, ok := c.IndexOf(v); !ok || idx != i {
			t.Fatalf("IndexOf(%s) = %d,%v want %d", v, idx, ok, i)
		}
		row := c.Row(i)
		want := g.Neighbors(v)
		if len(row) != len(want) {
			t.Fatalf("Row(%s): len %d want %d", v, len(row), len(want))
		}
		for k := range row {
			if row[k] != want[k] {
				t.Fatalf("Row(%s)[%d] = %s want %s", v, k, row[k], want[k])
			}
		}
		if lo, hi, ok := c.RowSpan(i); ok != (len(want) > 0) {
			t.Fatalf("RowSpan(%s) ok=%v with %d neighbors", v, ok, len(want))
		} else if ok && (lo != want[0] || hi != want[len(want)-1]) {
			t.Fatalf("RowSpan(%s) = [%s,%s] want [%s,%s]", v, lo, hi, want[0], want[len(want)-1])
		}
	}
	// Edge membership agrees on present and absent pairs.
	r := rand.New(rand.NewSource(99))
	for trial := 0; trial < 2000; trial++ {
		u := nodes[r.Intn(len(nodes))]
		v := nodes[r.Intn(len(nodes))]
		if c.HasEdge(u, v) != g.HasEdge(u, v) {
			t.Fatalf("HasEdge(%s,%s): csr %v graph %v", u, v, c.HasEdge(u, v), g.HasEdge(u, v))
		}
	}
	if c.MaxDegree() != g.MaxDegree() {
		t.Fatalf("MaxDegree: csr %d graph %d", c.MaxDegree(), g.MaxDegree())
	}
	if c.HasEdge(ids.ID(1234567), nodes[0]) {
		t.Fatal("HasEdge on absent node must be false")
	}
}

func TestCSRSupersetOfLine(t *testing.T) {
	r := rand.New(rand.NewSource(3))
	nodes := MakeIDs(64, RandomIDs, r)
	line := Line(nodes)
	if c := NewCSR(line); !c.SupersetOfLine() {
		t.Fatal("line graph: SupersetOfLine must hold")
	}
	line.AddEdge(line.Nodes()[0], line.Nodes()[10])
	if c := NewCSR(line); !c.SupersetOfLine() {
		t.Fatal("line + chord: SupersetOfLine must hold")
	}
	sorted := line.Nodes()
	line.RemoveEdge(sorted[4], sorted[5])
	if c := NewCSR(line); c.SupersetOfLine() {
		t.Fatal("broken line: SupersetOfLine must fail")
	}
	if g := randomTestGraph(50, 0.1, 11); NewCSR(g).SupersetOfLine() != g.SupersetOfLine() {
		t.Fatal("SupersetOfLine disagrees with Graph on random graph")
	}
}

func TestCSRParallelBuildIdentical(t *testing.T) {
	g := randomTestGraph(500, 0.02, 21)
	base := NewCSR(g)
	for _, w := range []int{2, 4, 8} {
		c := NewCSRParallel(g, w)
		if c.NumNodes() != base.NumNodes() || c.NumEdges() != base.NumEdges() {
			t.Fatalf("workers=%d: size mismatch", w)
		}
		for i := 0; i < base.NumNodes(); i++ {
			r1, r2 := base.Row(i), c.Row(i)
			if len(r1) != len(r2) {
				t.Fatalf("workers=%d row %d: len %d want %d", w, i, len(r2), len(r1))
			}
			for k := range r1 {
				if r1[k] != r2[k] {
					t.Fatalf("workers=%d row %d[%d]: %s want %s", w, i, k, r2[k], r1[k])
				}
			}
		}
	}
}

func TestCSREmptyAndTiny(t *testing.T) {
	if c := NewCSR(New()); c.NumNodes() != 0 || c.NumEdges() != 0 || c.SupersetOfLine() != true {
		t.Fatal("empty graph CSR misbehaves")
	}
	g := NewWithNodes(ids.ID(5))
	c := NewCSR(g)
	if _, _, ok := c.RowSpan(0); ok {
		t.Fatal("isolated node must have no row span")
	}
}

// sameCSR asserts two snapshots agree row for row.
func sameCSR(t *testing.T, label string, got, want *CSR) {
	t.Helper()
	if got.NumNodes() != want.NumNodes() || got.NumEdges() != want.NumEdges() {
		t.Fatalf("%s: size mismatch: %d/%d nodes, %d/%d edges",
			label, got.NumNodes(), want.NumNodes(), got.NumEdges(), want.NumEdges())
	}
	for i := 0; i < want.NumNodes(); i++ {
		r1, r2 := want.Row(i), got.Row(i)
		if len(r1) != len(r2) {
			t.Fatalf("%s row %d: len %d want %d", label, i, len(r2), len(r1))
		}
		for k := range r1 {
			if r1[k] != r2[k] {
				t.Fatalf("%s row %d[%d]: %s want %s", label, i, k, r2[k], r1[k])
			}
		}
	}
}

// TestCSRWithEdgesMatchesRebuild: a delta-applied snapshot must be
// indistinguishable from a full rebuild of the mutated graph, across
// repeated delta generations and worker counts.
func TestCSRWithEdgesMatchesRebuild(t *testing.T) {
	r := rand.New(rand.NewSource(5))
	g := randomTestGraph(300, 0.01, 5)
	nodes := g.Nodes()
	for _, workers := range []int{1, 4} {
		gen := g.Clone()
		c := NewCSR(gen)
		for round := 0; round < 5; round++ {
			var adds []Edge
			for len(adds) < 40 {
				u := nodes[r.Intn(len(nodes))]
				v := nodes[r.Intn(len(nodes))]
				if u == v || gen.HasEdge(u, v) {
					continue
				}
				gen.AddEdge(u, v)
				adds = append(adds, NewEdge(u, v))
			}
			c = c.WithEdges(adds, workers)
			sameCSR(t, "delta round", c, NewCSR(gen))
		}
	}
}

// TestCSRWithEdgesEdgeCases: empty deltas share the snapshot, duplicate
// adds collapse, and unknown endpoints are skipped rather than corrupting
// the rows.
func TestCSRWithEdgesEdgeCases(t *testing.T) {
	g := randomTestGraph(40, 0.1, 9)
	c := NewCSR(g)
	if c.WithEdges(nil, 4) != c {
		t.Fatal("empty delta must return the receiver")
	}
	nodes := g.Nodes()
	var u, v ids.ID
	found := false
	for i := 0; i < len(nodes) && !found; i++ {
		for j := i + 1; j < len(nodes); j++ {
			if !g.HasEdge(nodes[i], nodes[j]) {
				u, v, found = nodes[i], nodes[j], true
				break
			}
		}
	}
	if !found {
		t.Skip("graph too dense for the test")
	}
	dup := []Edge{NewEdge(u, v), NewEdge(u, v), NewEdge(ids.ID(987654321), u)}
	got := c.WithEdges(dup, 1)
	want := g.Clone()
	want.AddEdge(u, v)
	sameCSR(t, "dup+unknown", got, NewCSR(want))
}
