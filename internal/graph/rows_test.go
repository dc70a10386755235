package graph

import (
	"cmp"
	"math/rand"
	"slices"
	"testing"

	"repro/internal/ids"
)

// setModel is the map-of-sets adjacency Graph used to be, kept here as the
// model the sorted rows are checked against.
type setModel map[ids.ID]ids.Set

// graphOp is one mutation, applied to a Graph and to the model alike.
type graphOp struct {
	kind byte // 0 AddNode, 1 AddEdge, 2 RemoveEdge, 3 RemoveNode
	u, v ids.ID
}

// apply runs op on both sides and fails when their return values differ.
func (m setModel) apply(t *testing.T, g *Graph, op graphOp) {
	t.Helper()
	node := func(v ids.ID) ids.Set {
		if m[v] == nil {
			m[v] = ids.NewSet()
		}
		return m[v]
	}
	switch op.kind % 4 {
	case 0:
		g.AddNode(op.u)
		node(op.u)
	case 1:
		want := false
		if op.u != op.v {
			want = node(op.u).Add(op.v)
			node(op.v).Add(op.u)
		}
		if got := g.AddEdge(op.u, op.v); got != want {
			t.Fatalf("AddEdge(%s,%s) = %v, model says %v", op.u, op.v, got, want)
		}
	case 2:
		want := m[op.u].Remove(op.v)
		m[op.v].Remove(op.u)
		if got := g.RemoveEdge(op.u, op.v); got != want {
			t.Fatalf("RemoveEdge(%s,%s) = %v, model says %v", op.u, op.v, got, want)
		}
	case 3:
		g.RemoveNode(op.u)
		for w := range m[op.u] {
			m[w].Remove(op.u)
		}
		delete(m, op.u)
	}
}

// check asserts the row invariants (strictly ascending, symmetric, no
// self-loops) and that every read agrees with the model. universe bounds
// the identifiers HasEdge is probed with.
func (m setModel) check(t *testing.T, g *Graph, universe int) {
	t.Helper()
	if g.NumNodes() != len(m) {
		t.Fatalf("NumNodes = %d, model has %d", g.NumNodes(), len(m))
	}
	var wantEdges []Edge
	built := New()
	for v, set := range m {
		if !g.HasNode(v) {
			t.Fatalf("node %s missing", v)
		}
		built.AddNode(v)
		row := g.Neighbors(v)
		if g.Degree(v) != set.Len() || len(row) != set.Len() {
			t.Fatalf("Degree(%s) = %d, row has %d, model has %d", v, g.Degree(v), len(row), set.Len())
		}
		for i, u := range row {
			if i > 0 && row[i-1] >= u {
				t.Fatalf("row of %s not strictly ascending: %v", v, row)
			}
			if u == v {
				t.Fatalf("self-loop at %s", v)
			}
			if !set.Has(u) {
				t.Fatalf("row of %s holds %s, model does not", v, u)
			}
			if _, back := slices.BinarySearch(g.Neighbors(u), v); !back {
				t.Fatalf("edge {%s,%s} is not symmetric", v, u)
			}
			if v < u {
				wantEdges = append(wantEdges, Edge{U: v, V: u})
				built.AddEdge(v, u)
			}
		}
		for x := 0; x < universe; x++ {
			if got, want := g.HasEdge(v, ids.ID(x)), set.Has(ids.ID(x)); got != want {
				t.Fatalf("HasEdge(%s,%d) = %v, model says %v", v, x, got, want)
			}
		}
	}
	slices.SortFunc(wantEdges, func(a, b Edge) int {
		if c := cmp.Compare(a.U, b.U); c != 0 {
			return c
		}
		return cmp.Compare(a.V, b.V)
	})
	if got := g.Edges(); !slices.Equal(got, wantEdges) {
		t.Fatalf("Edges() = %v, model says %v", got, wantEdges)
	}
	if g.NumEdges() != len(wantEdges) {
		t.Fatalf("NumEdges = %d, model has %d", g.NumEdges(), len(wantEdges))
	}
	// built was filled from the model in map order: Equal must not care.
	if !g.Equal(built) || !built.Equal(g) {
		t.Fatal("Equal: graph differs from one rebuilt from the model")
	}
	c := g.Clone()
	if !c.Equal(g) {
		t.Fatal("Clone differs from its origin")
	}
	if len(wantEdges) > 0 {
		// Rows of a clone share slabs; writing one must not reach g or a
		// neighbouring row of the clone.
		e := wantEdges[0]
		c.RemoveEdge(e.U, e.V)
		c.AddEdge(e.U, e.V)
		c.AddEdge(e.U, ids.ID(universe))
		c.RemoveNode(ids.ID(universe))
		if !c.Equal(built) || !g.Equal(built) {
			t.Fatal("mutating a clone and undoing it changed the clone or its origin")
		}
	}
}

// TestRowsMatchSetModel drives random mutations over a small identifier
// universe, so adds hit existing edges and removals hit present ones, and
// compares the graph with the model after every step.
func TestRowsMatchSetModel(t *testing.T) {
	const universe = 24
	r := rand.New(rand.NewSource(16))
	g, m := New(), setModel{}
	for step := 0; step < 12000; step++ {
		op := graphOp{u: ids.ID(r.Intn(universe)), v: ids.ID(r.Intn(universe))}
		switch x := r.Intn(100); {
		case x < 5:
			op.kind = 0
		case x < 60:
			op.kind = 1
		case x < 95:
			op.kind = 2
		default:
			op.kind = 3
		}
		m.apply(t, g, op)
		m.check(t, g, universe)
	}
}

// FuzzGraphOps runs the same model check over fuzzer-chosen op sequences:
// three bytes per op (kind, u, v), identifiers folded into a universe of 16.
func FuzzGraphOps(f *testing.F) {
	f.Add([]byte{1, 0, 1, 1, 1, 2, 2, 0, 1, 3, 1, 0})
	f.Add([]byte{1, 5, 3, 1, 5, 1, 1, 5, 9, 1, 5, 7, 2, 5, 3, 3, 5, 0})
	f.Add([]byte{0, 4, 0, 1, 4, 4, 2, 4, 8, 3, 9, 0})
	f.Fuzz(func(t *testing.T, data []byte) {
		const universe = 16
		g, m := New(), setModel{}
		for i := 0; i+2 < len(data) && i < 3*256; i += 3 {
			m.apply(t, g, graphOp{kind: data[i], u: ids.ID(data[i+1] % universe), v: ids.ID(data[i+2] % universe)})
			m.check(t, g, universe)
		}
	})
}
