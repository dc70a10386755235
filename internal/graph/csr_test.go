package graph

import (
	"fmt"
	"math/rand"
	"slices"
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

// rowIDs maps row i of c back to identifiers.
func rowIDs(c *CSR, i int) []ids.ID {
	var out []ids.ID
	for _, j := range c.Row(i) {
		out = append(out, c.nodes[j])
	}
	return out
}

// sameAsGraph asserts that c is the image of g: same nodes in ascending
// order, and every row the node's neighbourhood.
func sameAsGraph(t *testing.T, label string, c *CSR, g *Graph) {
	t.Helper()
	if !slices.Equal(c.nodes, g.Nodes()) {
		t.Fatalf("%s: node sets differ", label)
	}
	if c.NumEdges() != g.NumEdges() {
		t.Fatalf("%s: NumEdges %d, graph has %d", label, c.NumEdges(), g.NumEdges())
	}
	for i, v := range c.nodes {
		if got, want := rowIDs(c, i), g.Neighbors(v); !slices.Equal(got, want) {
			t.Fatalf("%s: row of %s = %v, want %v", label, v, got, want)
		}
	}
}

func TestCSRMatchesGraph(t *testing.T) {
	g := randomTestGraph(200, 0.05, 7)
	c := NewCSR(g)
	sameAsGraph(t, "NewCSR", c, g)
	nodes := g.Nodes()
	// Both dense forms lead back to g, and the mutable one freezes into c.
	dn, rows := DenseRows(g)
	sameAsGraph(t, "FreezeRows(DenseRows)", FreezeRows(dn, rows), g)
	if !c.Graph().Equal(g) {
		t.Fatal("CSR.Graph is not the graph that went in")
	}
	// A thawed row is capped at its length: growing one leaves the next alone.
	next := slices.Clone(rows[1])
	rows[0] = append(rows[0], 1<<30)
	if !slices.Equal(rows[1], next) {
		t.Fatal("appending to one dense row wrote into its neighbour")
	}
	// Edge membership agrees on present and absent pairs, by identifier and
	// by index.
	r := rand.New(rand.NewSource(99))
	for trial := 0; trial < 2000; trial++ {
		i, j := r.Intn(len(nodes)), r.Intn(len(nodes))
		want := g.HasEdge(nodes[i], nodes[j])
		if c.HasEdge(nodes[i], nodes[j]) != want || c.Has(int32(i), int32(j)) != want {
			t.Fatalf("edge {%s,%s}: graph says %v, csr HasEdge %v Has %v", nodes[i], nodes[j],
				want, c.HasEdge(nodes[i], nodes[j]), c.Has(int32(i), int32(j)))
		}
	}
	if c.MaxDegree() != g.MaxDegree() {
		t.Fatalf("MaxDegree: csr %d graph %d", c.MaxDegree(), g.MaxDegree())
	}
	if c.HasEdge(ids.ID(1234567), nodes[0]) || c.HasEdge(nodes[0], ids.ID(1234567)) {
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
	g := randomTestGraph(50, 0.1, 11)
	want, sorted := true, g.Nodes()
	for i := 0; i+1 < len(sorted); i++ {
		want = want && g.HasEdge(sorted[i], sorted[i+1])
	}
	if NewCSR(g).SupersetOfLine() != want {
		t.Fatal("SupersetOfLine disagrees with a HasEdge walk on a random graph")
	}
}

func TestCSREmptyAndTiny(t *testing.T) {
	if c := NewCSR(New()); len(c.nodes) != 0 || c.NumEdges() != 0 || c.SupersetOfLine() != true {
		t.Fatal("empty graph CSR misbehaves")
	}
	c := NewCSR(NewWithNodes(ids.ID(5)))
	if len(c.Row(0)) != 0 || c.MaxDegree() != 0 || c.HasEdge(5, 5) {
		t.Fatal("isolated node must have an empty row")
	}
}

// TestCSRWithEdgesMatchesRebuild: a delta-applied snapshot must be
// indistinguishable from a full rebuild of the mutated graph, across
// repeated delta generations.
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
			sameAsGraph(t, "delta round", c, gen)
		}
	}
}

// TestCSRWithEdgesEdgeCases: a delta with nothing to add shares the
// snapshot; present edges, duplicates, self-loops and unknown endpoints are
// dropped rather than corrupting a row; the wrap edge between the first and
// the last node lands at the far end of both rows.
func TestCSRWithEdgesEdgeCases(t *testing.T) {
	g := randomTestGraph(40, 0.1, 9)
	nodes := g.Nodes()
	first, last := nodes[0], nodes[len(nodes)-1]
	g.RemoveEdge(first, last)
	c := NewCSR(g)
	present := g.Edges()[0]
	if c.WithEdges(nil, 4) != c {
		t.Fatal("empty delta must return the receiver")
	}
	if c.WithEdges([]Edge{present, {U: present.V, V: present.U}, {U: first, V: first}}, 1) != c {
		t.Fatal("a delta of present edges and self-loops must return the receiver")
	}
	var u, v ids.ID
	found := false
	for i := 1; i < len(nodes) && !found; i++ {
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
	adds := []Edge{
		present,                                  // already in the snapshot
		{U: u, V: v}, {U: v, V: u}, {U: u, V: v}, // one edge, three times, both orders
		{U: ids.ID(987654321), V: u}, {U: v, V: ids.ID(987654321)}, // unknown endpoint
		{U: last, V: first}, // wrap edge
		{U: u, V: u},
	}
	got := c.WithEdges(adds, 1)
	want := g.Clone()
	want.AddEdge(u, v)
	want.AddEdge(first, last)
	sameAsGraph(t, "edge cases", got, want)
	if got.NumEdges() != c.NumEdges()+2 {
		t.Fatalf("NumEdges = %d, want %d", got.NumEdges(), c.NumEdges()+2)
	}
	n := int32(len(nodes))
	if r := got.Row(0); r[len(r)-1] != n-1 {
		t.Fatalf("first node's row %v does not end on the wrap partner", r)
	}
	if r := got.Row(int(n - 1)); r[0] != 0 {
		t.Fatalf("last node's row %v does not start on the wrap partner", r)
	}
	sameAsGraph(t, "receiver untouched", c, g)
}

// TestMergerAdded: after every Merge of a chain of merges on one Merger,
// Added(i) is row i of the new image less row i of the old, ascending and
// split at i; a Merge of no pairs reports nothing won and nothing added,
// and a fresh Merger reports nothing at all. The same pairs split over
// several buffers, some empty, merge to the same image, Won and Added.
func TestMergerAdded(t *testing.T) {
	if below, above, ok := new(Merger).Added(0); ok || below != nil || above != nil {
		t.Fatal("a fresh Merger reports additions")
	}
	for seed := int64(0); seed < 120; seed++ {
		r := rand.New(rand.NewSource(seed))
		n := 2 + r.Intn(40)
		c := NewCSR(randomTestGraph(n, r.Float64()*0.2, seed))
		var m, split Merger
		for batch := 0; batch < 6; batch++ {
			var pairs []Pair
			if batch != 3 { // the fourth batch is empty
				for k := r.Intn(3 * n); k > 0; k-- {
					a, b := int32(r.Intn(n)), int32(r.Intn(n))
					if a != b && !c.Has(min(a, b), max(a, b)) {
						for dup := 1 + r.Intn(3)/2; dup > 0; dup-- {
							pairs = append(pairs, Pair{min(a, b), max(a, b)})
						}
					}
				}
			}
			next := c.Merge(&m, [][]Pair{pairs}, 1+batch%3)
			if len(pairs) == 0 && slices.Contains(m.Won, true) {
				t.Fatalf("seed %d batch %d: an empty merge reports winners %v", seed, batch, m.Won)
			}
			sameMerge(t, fmt.Sprintf("seed %d batch %d split", seed, batch), c.Merge(&split, splitPairs(r, pairs), 2), &split, next, &m)
			for i := 0; i < n; i++ {
				var want []int32
				for _, x := range next.Row(i) {
					if _, had := SearchRow(c.Row(i), x); !had {
						want = append(want, x)
					}
				}
				below, above, ok := m.Added(i)
				if !ok {
					t.Fatalf("seed %d batch %d: Added reports no merge", seed, batch)
				}
				for _, x := range below {
					if x >= int32(i) {
						t.Fatalf("seed %d batch %d row %d: %d reported below", seed, batch, i, x)
					}
				}
				for _, x := range above {
					if x <= int32(i) {
						t.Fatalf("seed %d batch %d row %d: %d reported above", seed, batch, i, x)
					}
				}
				if got := append(slices.Clone(below), above...); !slices.Equal(got, want) {
					t.Fatalf("seed %d batch %d row %d: added %v %v, the row gained %v", seed, batch, i, below, above, want)
				}
			}
			c = next
		}
	}
}

// TestCSRMergeMatchesAddEdge is the merge's model check: over random graphs
// and random pair lists with duplicates, Merge must build the image of the
// graph that AddEdge of the same pairs in the same order builds — and the
// graph built back from that image must be that graph — mark as winners
// exactly the pairs AddEdge accepts, and leave the receiver as it was.
// WithEdges must agree when handed the same edges with either endpoint
// first, and so must the same pairs split over several buffers.
func TestCSRMergeMatchesAddEdge(t *testing.T) {
	var m, split Merger
	for seed := int64(0); seed < 240; seed++ {
		r := rand.New(rand.NewSource(seed))
		n := 2 + r.Intn(40)
		g := randomTestGraph(n, r.Float64()*0.3, seed)
		nodes := g.Nodes()
		c := NewCSR(g)

		var pairs []Pair
		var edges []Edge
		for k := r.Intn(4 * n); k > 0; k-- {
			a, b := int32(r.Intn(n)), int32(r.Intn(n))
			if a > b {
				a, b = b, a
			}
			if a == b || c.Has(a, b) {
				continue
			}
			for dup := 1 + r.Intn(3)/2; dup > 0; dup-- {
				pairs = append(pairs, Pair{a, b})
			}
			if r.Intn(2) == 0 {
				a, b = b, a
			}
			edges = append(edges, Edge{U: nodes[a], V: nodes[b]})
		}
		r.Shuffle(len(pairs), func(i, j int) { pairs[i], pairs[j] = pairs[j], pairs[i] })

		want := g.Clone()
		wantWon := make([]bool, len(pairs))
		for i, p := range pairs {
			wantWon[i] = want.AddEdge(nodes[p.A], nodes[p.B])
		}
		got := c.Merge(&m, [][]Pair{pairs}, 1+int(seed%3))
		sameAsGraph(t, "merge", got, want)
		sameAsGraph(t, "receiver", c, g)
		sameMerge(t, fmt.Sprintf("seed %d split", seed), c.Merge(&split, splitPairs(r, pairs), 2), &split, got, &m)
		sameAsGraph(t, "receiver after the split merge", c, g)
		if !got.Graph().Equal(want) {
			t.Fatalf("seed %d: the merged image's graph differs from AddEdge of the same pairs", seed)
		}
		if len(pairs) > 0 && !slices.Equal(m.Won, wantWon) {
			t.Fatalf("seed %d: winners %v, AddEdge accepts %v", seed, m.Won, wantWon)
		}
		sameAsGraph(t, "WithEdges", c.WithEdges(edges, 1), want)
	}
}

// splitPairs cuts pairs at random points into one to five buffers, some of
// them empty, which read in order are pairs again.
func splitPairs(r *rand.Rand, pairs []Pair) [][]Pair {
	cuts := []int{0, len(pairs)}
	for k := r.Intn(5); k > 0; k-- {
		cuts = append(cuts, r.Intn(len(pairs)+1))
	}
	slices.Sort(cuts)
	out := make([][]Pair, len(cuts)-1)
	for k := range out {
		out[k] = pairs[cuts[k]:cuts[k+1]]
	}
	return out
}

// sameMerge asserts that got and its Merger mg describe the merge that want
// and mw describe: the same rows, the same winners and the same additions.
func sameMerge(t *testing.T, label string, got *CSR, mg *Merger, want *CSR, mw *Merger) {
	t.Helper()
	if !slices.Equal(got.nodes, want.nodes) || !slices.Equal(got.row, want.row) || !slices.Equal(got.nbr, want.nbr) {
		t.Fatalf("%s: the image differs", label)
	}
	if !slices.Equal(mg.Won, mw.Won) {
		t.Fatalf("%s: winners %v, want %v", label, mg.Won, mw.Won)
	}
	for i := range want.nodes {
		gb, ga, gok := mg.Added(i)
		wb, wa, wok := mw.Added(i)
		if gok != wok || !slices.Equal(gb, wb) || !slices.Equal(ga, wa) {
			t.Fatalf("%s row %d: added %v %v, want %v %v", label, i, gb, ga, wb, wa)
		}
	}
}

// TestCSRMergeInPlaceMatchesMerge chains eight in-place merges per random
// graph — large batches that outgrow the array, small ones that fit its
// headroom, an empty one, the pairs split over several buffers — and after
// each holds the rows, Won and Added to the receiver-preserving Merge of the
// same pairs. Both kinds of write must have run.
func TestCSRMergeInPlaceMatchesMerge(t *testing.T) {
	grown, fitted := 0, 0
	for seed := int64(0); seed < 120; seed++ {
		r := rand.New(rand.NewSource(seed))
		n := 2 + r.Intn(40)
		g := randomTestGraph(n, r.Float64()*0.2, seed)
		ref, c := NewCSR(g), NewCSR(g)
		var mRef, m Merger
		for batch := 0; batch < 8; batch++ {
			var pairs []Pair
			most := max(1, n/4) // small batches
			if batch%3 == 0 {
				most = 3 * n
			}
			if batch != 4 { // the fifth batch is empty
				for k := r.Intn(most + 1); k > 0; k-- {
					a, b := int32(r.Intn(n)), int32(r.Intn(n))
					if a != b && !ref.Has(min(a, b), max(a, b)) {
						for dup := 1 + r.Intn(3)/2; dup > 0; dup-- {
							pairs = append(pairs, Pair{min(a, b), max(a, b)})
						}
					}
				}
			}
			props := splitPairs(r, pairs)
			workers := 1 + batch%3
			prev := ref
			ref = ref.Merge(&mRef, props, workers)
			before := c.nbr[:cap(c.nbr)]
			c.MergeInPlace(&m, props, workers)
			after := c.nbr[:cap(c.nbr)]
			switch {
			case ref == prev: // nothing to add
			case len(before) > 0 && &before[0] == &after[0]:
				fitted++
			default:
				grown++
			}
			sameMerge(t, fmt.Sprintf("seed %d batch %d", seed, batch), c, &m, ref, &mRef)
		}
	}
	if grown == 0 || fitted == 0 {
		t.Fatalf("%d merges grew the array and %d fitted it: both kinds must run", grown, fitted)
	}
	t.Logf("%d merges grew the array, %d rewrote it in place", grown, fitted)
}
