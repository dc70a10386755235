// Package graph provides the graph substrate for the SSR/VRR reproduction:
// undirected graphs keyed by node identifier, the topology generators used by
// the paper's experiments (random regular, Erdős–Rényi, power-law, unit-disk,
// grid, line, ring, star), and the traversal/connectivity algorithms that the
// consistency checkers and the physical network simulator build on.
//
// Graphs here serve two distinct roles:
//
//   - The *physical* network graph E_p: communication links between nodes.
//   - The *virtual* network graph E_v: source routes (SSR) or path state
//     (VRR), which the linearization algorithm transforms into the virtual
//     ring. §4 of the paper initializes E_v := E_p.
package graph

import (
	"fmt"
	"math/bits"
	"math/rand"
	"slices"

	"repro/internal/ids"
)

// Graph is an undirected simple graph over node identifiers. Self-loops are
// rejected; parallel edges collapse. The zero value is not usable; call New.
//
// Every neighbourhood is stored as one strictly ascending []ids.ID row —
// the order Algorithm 1 reads (u_1 < … < u_k < v < u_{k+1} < …) — so
// membership is a binary search, the identifier span of N(v) is the row's
// first and last element, and an ordered walk is an array scan. Rows sit
// behind pointers: AddEdge and RemoveEdge between existing nodes rewrite
// the two endpoint rows and never write the outer map.
type Graph struct {
	adj map[ids.ID]*row
}

// row is one node's neighbours, strictly ascending.
type row []ids.ID

// insert adds x in order and reports whether it was absent. Appending past
// the last element — the common case when a chain walk adds in ascending
// order — skips the search and the shift.
func (r *row) insert(x ids.ID) bool {
	s := *r
	if n := len(s); n == 0 || s[n-1] < x {
		*r = append(s, x)
		return true
	}
	i, found := slices.BinarySearch(s, x)
	if found {
		return false
	}
	*r = slices.Insert(s, i, x)
	return true
}

// remove deletes x and reports whether it was present.
func (r *row) remove(x ids.ID) bool {
	s := *r
	i, found := slices.BinarySearch(s, x)
	if !found {
		return false
	}
	*r = slices.Delete(s, i, i+1)
	return true
}

// New returns an empty graph.
func New() *Graph {
	return &Graph{adj: make(map[ids.ID]*row)}
}

// NewWithNodes returns a graph containing the given nodes and no edges.
func NewWithNodes(nodes ...ids.ID) *Graph {
	g := &Graph{adj: make(map[ids.ID]*row, len(nodes))}
	for _, n := range nodes {
		g.AddNode(n)
	}
	return g
}

// rowOf returns v's row, inserting v as an isolated node if absent.
func (g *Graph) rowOf(v ids.ID) *row {
	r, ok := g.adj[v]
	if !ok {
		r = new(row)
		g.adj[v] = r
	}
	return r
}

// AddNode inserts an isolated node if not present.
func (g *Graph) AddNode(v ids.ID) { g.rowOf(v) }

// RemoveNode deletes v and all incident edges. It is a no-op if v is absent.
func (g *Graph) RemoveNode(v ids.ID) {
	r, ok := g.adj[v]
	if !ok {
		return
	}
	for _, u := range *r {
		g.adj[u].remove(v)
	}
	delete(g.adj, v)
}

// HasNode reports whether v is in the graph.
func (g *Graph) HasNode(v ids.ID) bool {
	_, ok := g.adj[v]
	return ok
}

// AddEdge inserts the undirected edge {u,v}, adding the endpoints if needed.
// It reports whether the edge was newly added. Self-loops are ignored.
func (g *Graph) AddEdge(u, v ids.ID) bool {
	if u == v {
		return false
	}
	if !g.rowOf(u).insert(v) {
		return false
	}
	g.rowOf(v).insert(u)
	return true
}

// RemoveEdge deletes the undirected edge {u,v} and reports whether it was
// present.
func (g *Graph) RemoveEdge(u, v ids.ID) bool {
	ru, ok := g.adj[u]
	if !ok || !ru.remove(v) {
		return false
	}
	g.adj[v].remove(u)
	return true
}

// HasEdge reports whether the undirected edge {u,v} exists.
func (g *Graph) HasEdge(u, v ids.ID) bool {
	r, ok := g.adj[u]
	if !ok {
		return false
	}
	_, found := slices.BinarySearch(*r, v)
	return found
}

// Neighbors returns the neighbours of v in ascending identifier order, nil
// if v is absent. The slice is a read-only view of the graph's own row:
// callers must not write to it, and AddEdge, RemoveEdge or RemoveNode
// touching v invalidate it — copy it first to mutate v while walking its
// neighbourhood. Range over it with two variables, `for _, u := range`:
// the one-variable form compiles and yields indices (scripts/docs-check.sh
// rejects it).
func (g *Graph) Neighbors(v ids.ID) []ids.ID {
	if r, ok := g.adj[v]; ok {
		return *r
	}
	return nil
}

// Degree returns the degree of v, or 0 if absent.
func (g *Graph) Degree(v ids.ID) int { return len(g.Neighbors(v)) }

// NumNodes returns the node count.
func (g *Graph) NumNodes() int { return len(g.adj) }

// NumEdges returns the undirected edge count.
func (g *Graph) NumEdges() int {
	total := 0
	for _, r := range g.adj {
		total += len(*r)
	}
	return total / 2
}

// Nodes returns all node identifiers in ascending order.
func (g *Graph) Nodes() []ids.ID {
	out := make([]ids.ID, 0, len(g.adj))
	for v := range g.adj {
		out = append(out, v)
	}
	ids.SortAsc(out)
	return out
}

// Edge is an undirected edge with U < V canonically.
type Edge struct {
	U, V ids.ID
}

// NewEdge returns the canonical form of the edge {u,v}.
func NewEdge(u, v ids.ID) Edge {
	if u > v {
		u, v = v, u
	}
	return Edge{U: u, V: v}
}

// String renders the edge as "{u,v}".
func (e Edge) String() string { return fmt.Sprintf("{%s,%s}", e.U, e.V) }

// Edges returns all edges in canonical, deterministic order.
func (g *Graph) Edges() []Edge {
	out := make([]Edge, 0, g.NumEdges())
	for _, v := range g.Nodes() {
		for _, u := range *g.adj[v] {
			if v < u {
				out = append(out, Edge{U: v, V: u})
			}
		}
	}
	return out
}

// Clone returns a deep copy of the graph. The copy's rows are carved out of
// two slabs (one of row headers, one of neighbour identifiers), each row
// capped at its length so a later insert reallocates that row alone.
func (g *Graph) Clone() *Graph {
	c := &Graph{adj: make(map[ids.ID]*row, len(g.adj))}
	total := 0
	for _, r := range g.adj {
		total += len(*r)
	}
	rows := make([]row, len(g.adj))
	nbrs := make([]ids.ID, total)
	i, off := 0, 0
	for v, r := range g.adj {
		end := off + copy(nbrs[off:], *r)
		rows[i] = nbrs[off:end:end]
		c.adj[v] = &rows[i]
		i, off = i+1, end
	}
	return c
}

// Equal reports whether g and h have identical node and edge sets.
func (g *Graph) Equal(h *Graph) bool {
	if len(g.adj) != len(h.adj) {
		return false
	}
	for v, r := range g.adj {
		hr, ok := h.adj[v]
		if !ok || !slices.Equal(*r, *hr) {
			return false
		}
	}
	return true
}

// MaxDegree returns the maximum node degree (0 for an empty graph).
func (g *Graph) MaxDegree() int {
	max := 0
	for _, r := range g.adj {
		if len(*r) > max {
			max = len(*r)
		}
	}
	return max
}

// AvgDegree returns the average node degree (0 for an empty graph).
func (g *Graph) AvgDegree() float64 {
	if len(g.adj) == 0 {
		return 0
	}
	return 2 * float64(g.NumEdges()) / float64(len(g.adj))
}

// BFSFrom runs a breadth-first search from src and returns the hop distance
// to every reachable node (src included at distance 0).
func (g *Graph) BFSFrom(src ids.ID) map[ids.ID]int {
	dist := make(map[ids.ID]int)
	if !g.HasNode(src) {
		return dist
	}
	dist[src] = 0
	queue := []ids.ID{src}
	for len(queue) > 0 {
		v := queue[0]
		queue = queue[1:]
		for _, u := range g.Neighbors(v) {
			if _, seen := dist[u]; !seen {
				dist[u] = dist[v] + 1
				queue = append(queue, u)
			}
		}
	}
	return dist
}

// ShortestPath returns a minimum-hop path from src to dst (inclusive of both
// endpoints), or nil if dst is unreachable. Ties are broken by ascending
// identifier to keep results deterministic.
func (g *Graph) ShortestPath(src, dst ids.ID) []ids.ID {
	if !g.HasNode(src) || !g.HasNode(dst) {
		return nil
	}
	if src == dst {
		return []ids.ID{src}
	}
	parent := map[ids.ID]ids.ID{src: src}
	queue := []ids.ID{src}
	for len(queue) > 0 {
		v := queue[0]
		queue = queue[1:]
		for _, u := range g.Neighbors(v) {
			if _, seen := parent[u]; seen {
				continue
			}
			parent[u] = v
			if u == dst {
				path := []ids.ID{dst}
				for p := dst; p != src; {
					p = parent[p]
					path = append(path, p)
				}
				for i, j := 0, len(path)-1; i < j; i, j = i+1, j-1 {
					path[i], path[j] = path[j], path[i]
				}
				return path
			}
			queue = append(queue, u)
		}
	}
	return nil
}

// Connected reports whether the graph is connected. The empty graph counts
// as connected.
func (g *Graph) Connected() bool { return len(components(NewCSR(g))) <= 1 }

// Components returns the connected components, each sorted ascending, in
// deterministic order (by smallest member).
func (g *Graph) Components() [][]ids.ID {
	c := NewCSR(g)
	var out [][]ids.ID
	for _, comp := range components(c) {
		members := make([]ids.ID, len(comp))
		for k, v := range comp {
			members[k] = c.nodes[v]
		}
		out = append(out, members)
	}
	return out
}

// components is Components over c's dense indices, which keep identifier
// order. The components share one slab, the breadth-first queue.
func components(c *CSR) [][]int32 {
	seen := make([]bool, len(c.nodes))
	slab := make([]int32, 0, len(c.nodes))
	var comps [][]int32
	for v := range c.nodes {
		if seen[v] {
			continue
		}
		start := len(slab)
		seen[v] = true
		slab = append(slab, int32(v))
		for k := start; k < len(slab); k++ {
			for _, u := range c.Row(int(slab[k])) {
				if !seen[u] {
					seen[u] = true
					slab = append(slab, u)
				}
			}
		}
		// v is the smallest index not yet seen, hence comp's smallest
		// member: appending keeps comps ordered by smallest member.
		comp := slab[start:len(slab):len(slab)]
		slices.Sort(comp)
		comps = append(comps, comp)
	}
	return comps
}

// Diameter returns the maximum eccentricity over all nodes. It returns -1
// for a disconnected or empty graph. This is O(V·E) and intended for the
// modest topologies used in experiments.
func (g *Graph) Diameter() int {
	if len(g.adj) == 0 {
		return -1
	}
	diam := 0
	for v := range g.adj {
		dist := g.BFSFrom(v)
		if len(dist) != len(g.adj) {
			return -1
		}
		for _, d := range dist {
			if d > diam {
				diam = d
			}
		}
	}
	return diam
}

// IsLinearized reports whether the graph is exactly the sorted line over its
// node set: node i is adjacent to node i-1 and i+1 (in identifier order) and
// to nothing else. This is the fixed point of linearization before ring
// closure. Graphs with fewer than two nodes are trivially linearized when
// they have no edges.
func (g *Graph) IsLinearized() bool {
	nodes := g.Nodes()
	if len(nodes) < 2 {
		return g.NumEdges() == 0
	}
	if g.NumEdges() != len(nodes)-1 {
		return false
	}
	for i := 0; i < len(nodes)-1; i++ {
		if !g.HasEdge(nodes[i], nodes[i+1]) {
			return false
		}
	}
	return true
}

// IsSortedRing reports whether the graph is exactly the virtual ring over
// its node set: the sorted line plus the closing edge between the smallest
// and largest identifier. Rings need at least three nodes; two nodes with
// one edge also count (line == ring then), matching SSR's degenerate cases.
func (g *Graph) IsSortedRing() bool {
	nodes := g.Nodes()
	switch len(nodes) {
	case 0, 1:
		return g.NumEdges() == 0
	case 2:
		return g.NumEdges() == 1 && g.HasEdge(nodes[0], nodes[1])
	}
	if g.NumEdges() != len(nodes) {
		return false
	}
	for i := 0; i < len(nodes)-1; i++ {
		if !g.HasEdge(nodes[i], nodes[i+1]) {
			return false
		}
	}
	return g.HasEdge(nodes[0], nodes[len(nodes)-1])
}

// randomSpanningConnected adds random edges to g, whose image c is, until
// it is connected, using r for randomness (c is read, not kept up to date).
// Generators that can produce disconnected graphs end with it, so
// experiments always start from the paper's standing assumption of a
// connected physical network.
//
// Each step draws three r.Intn values against Components()' order
// (components by smallest member, members ascending): a member of
// component 0, one of the other components, a member of that one; it joins
// the two members and merges the component into component 0. The generated
// graph is part of every seeded experiment, so the draws are fixed; what is
// free is how the order is kept. Component 0 holds the smallest node and
// stays first through every merge, and the others keep their relative
// order, so the components are found once and two rank trees stand in for
// finding them again after every edge.
func (g *Graph) randomSpanningConnected(c *CSR, r *rand.Rand) {
	comps := components(c)
	if len(comps) < 2 {
		return
	}
	first := newRankTree(len(c.nodes)) // members of component 0, by dense index
	join := func(comp []int32) {
		for _, v := range comp {
			first.add(int(v), 1)
		}
	}
	join(comps[0])
	size := len(comps[0])
	others := newRankTree(len(comps) - 1) // comps[1:] not yet merged
	for i := range comps[1:] {
		others.add(i, 1)
	}
	for left := len(comps) - 1; left > 0; left-- {
		a := c.nodes[first.kth(r.Intn(size))]
		k := others.kth(r.Intn(left))
		c2 := comps[1+k]
		b := c.nodes[c2[r.Intn(len(c2))]]
		g.AddEdge(a, b)
		join(c2)
		size += len(c2)
		others.add(k, -1)
	}
}

// rankTree is a Fenwick tree of counts over positions 0..n-1 of a 0/1
// array: add marks or clears a position, kth finds the k-th marked one,
// both in O(log n).
type rankTree []int32

func newRankTree(n int) rankTree { return make(rankTree, n+1) }

func (t rankTree) add(i int, d int32) {
	for i++; i < len(t); i += i & -i {
		t[i] += d
	}
}

// kth returns the position of the k-th marked element, counting from 0.
// k must be below the number of marks.
func (t rankTree) kth(k int) int {
	pos := 0
	for step := 1 << bits.Len(uint(len(t)-1)); step > 0; step >>= 1 {
		if next := pos + step; next < len(t) && int(t[next]) <= k {
			pos = next
			k -= int(t[next])
		}
	}
	return pos
}
