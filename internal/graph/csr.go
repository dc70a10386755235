package graph

// This file provides the frozen form of a Graph: a compressed-sparse-row
// adjacency image. Graph already keeps every neighbourhood as a sorted row,
// so the snapshot is not about order or lookup speed — it is the one thing
// a live Graph cannot be: immutable. The Jacobi executor (linearization
// with memory) needs every node of a round to read the same round-start
// image while the merge writes the live graph; the CSR is that image. It
// costs one O(V+E) row copy to build, an O(E + delta) merge to advance by
// a round's accepted edges (WithEdges), packs all rows into one array, and
// answers by dense node position (Row, RowSpan) without a hash probe.
//
// A CSR is immutable after construction and therefore safe for concurrent
// readers without locking — the property the parallel round executor's
// snapshot phase relies on.

import (
	"cmp"
	"slices"
	"sync"

	"repro/internal/ids"
)

// CSR is an immutable compressed-sparse-row snapshot of a Graph. Rows are
// indexed by the node's dense position in ascending identifier order, so
// row order and identifier order coincide.
type CSR struct {
	nodes []ids.ID // ascending
	row   []int32  // len(nodes)+1 offsets into nbr
	nbr   []ids.ID // concatenated per-row neighbor identifiers, each row sorted
	index map[ids.ID]int32
}

// NewCSR snapshots g single-threaded. See NewCSRParallel.
func NewCSR(g *Graph) *CSR { return NewCSRParallel(g, 1) }

// NewCSRParallel snapshots g using up to workers goroutines for the row
// copy. workers <= 1 builds sequentially. The result is independent of the
// worker count.
func NewCSRParallel(g *Graph, workers int) *CSR {
	nodes := g.Nodes()
	n := len(nodes)
	c := &CSR{
		nodes: nodes,
		row:   make([]int32, n+1),
		index: make(map[ids.ID]int32, n),
	}
	total := int32(0)
	for i, v := range nodes {
		c.index[v] = int32(i)
		c.row[i] = total
		total += int32(g.Degree(v))
	}
	c.row[n] = total
	c.nbr = make([]ids.ID, total)

	fill := func(lo, hi int) {
		for i := lo; i < hi; i++ {
			copy(c.nbr[c.row[i]:c.row[i+1]], g.Neighbors(nodes[i]))
		}
	}
	if workers <= 1 || n < 2*workers {
		fill(0, n)
		return c
	}
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		lo, hi := w*n/workers, (w+1)*n/workers
		if lo >= hi {
			continue
		}
		wg.Add(1)
		go func() {
			defer wg.Done()
			fill(lo, hi)
		}()
	}
	wg.Wait()
	return c
}

// WithEdges returns a snapshot equal to c plus the given undirected edges,
// sharing the (immutable) node slice and index map with c — the delta
// update that lets the Jacobi executor avoid a full O(V+E) rebuild plus
// index re-hash per round when only a handful of edges were accepted.
//
// Caller contract: every endpoint must be a node of c (the executor's node
// set is fixed for a run), and adds should be edges absent from c —
// duplicates among adds are ignored, but an add already present in c would
// produce a (harmless but wasteful) repeated row entry. workers bounds the
// parallel row merge as in NewCSRParallel. An empty adds returns c itself.
func (c *CSR) WithEdges(adds []Edge, workers int) *CSR {
	if len(adds) == 0 {
		return c
	}
	type pair struct {
		i   int32
		nbr ids.ID
	}
	pairs := make([]pair, 0, 2*len(adds))
	for _, e := range adds {
		iu, okU := c.index[e.U]
		iv, okV := c.index[e.V]
		if !okU || !okV {
			continue // unknown endpoint: not representable in this snapshot
		}
		pairs = append(pairs, pair{iu, e.V}, pair{iv, e.U})
	}
	slices.SortFunc(pairs, func(a, b pair) int {
		if c := cmp.Compare(a.i, b.i); c != 0 {
			return c
		}
		return cmp.Compare(a.nbr, b.nbr)
	})
	dd := pairs[:0]
	for _, p := range pairs {
		if len(dd) > 0 && dd[len(dd)-1] == p {
			continue
		}
		dd = append(dd, p)
	}
	pairs = dd

	n := len(c.nodes)
	out := &CSR{nodes: c.nodes, index: c.index, row: make([]int32, n+1)}
	total := int32(0)
	p := 0
	for i := 0; i < n; i++ {
		out.row[i] = total
		total += c.row[i+1] - c.row[i]
		for p < len(pairs) && int(pairs[p].i) == i {
			total++
			p++
		}
	}
	out.row[n] = total
	out.nbr = make([]ids.ID, total)

	merge := func(lo, hi int) {
		p, _ := slices.BinarySearchFunc(pairs, lo, func(p pair, row int) int {
			return cmp.Compare(int(p.i), row)
		})
		for i := lo; i < hi; i++ {
			old := c.nbr[c.row[i]:c.row[i+1]]
			dst := out.nbr[out.row[i]:out.row[i+1]]
			oi, di := 0, 0
			for p < len(pairs) && int(pairs[p].i) == i {
				nb := pairs[p].nbr
				for oi < len(old) && old[oi] < nb {
					dst[di] = old[oi]
					oi++
					di++
				}
				dst[di] = nb
				di++
				p++
			}
			copy(dst[di:], old[oi:])
		}
	}
	if workers <= 1 || n < 2*workers {
		merge(0, n)
		return out
	}
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		lo, hi := w*n/workers, (w+1)*n/workers
		if lo >= hi {
			continue
		}
		wg.Add(1)
		go func() {
			defer wg.Done()
			merge(lo, hi)
		}()
	}
	wg.Wait()
	return out
}

// NumNodes returns the node count.
func (c *CSR) NumNodes() int { return len(c.nodes) }

// NumEdges returns the undirected edge count.
func (c *CSR) NumEdges() int { return len(c.nbr) / 2 }

// Node returns the identifier at dense index i (ascending order).
func (c *CSR) Node(i int) ids.ID { return c.nodes[i] }

// Nodes returns the ascending identifier slice. Callers must not mutate it.
func (c *CSR) Nodes() []ids.ID { return c.nodes }

// IndexOf returns the dense index of v, or ok=false if absent.
func (c *CSR) IndexOf(v ids.ID) (int, bool) {
	i, ok := c.index[v]
	return int(i), ok
}

// Row returns the sorted neighbor identifiers of the node at dense index i.
// The slice aliases the snapshot; callers must not mutate it.
func (c *CSR) Row(i int) []ids.ID { return c.nbr[c.row[i]:c.row[i+1]] }

// Degree returns the degree of the node at dense index i.
func (c *CSR) Degree(i int) int { return int(c.row[i+1] - c.row[i]) }

// RowSpan returns the smallest and largest neighbor identifier of the node
// at dense index i, or ok=false for an isolated node. This is the O(1)
// identifier footprint that shard-interior classification uses.
func (c *CSR) RowSpan(i int) (lo, hi ids.ID, ok bool) {
	r := c.Row(i)
	if len(r) == 0 {
		return 0, 0, false
	}
	return r[0], r[len(r)-1], true
}

// HasEdge reports whether the snapshot contains the undirected edge {u,v},
// by binary search in u's row.
func (c *CSR) HasEdge(u, v ids.ID) bool {
	i, ok := c.index[u]
	if !ok {
		return false
	}
	_, found := slices.BinarySearch(c.Row(int(i)), v)
	return found
}

// MaxDegree returns the maximum degree in the snapshot.
func (c *CSR) MaxDegree() int {
	maxDeg := 0
	for i := 0; i < len(c.nodes); i++ {
		if d := c.Degree(i); d > maxDeg {
			maxDeg = d
		}
	}
	return maxDeg
}

// SupersetOfLine reports whether the snapshot contains every consecutive
// edge of the sorted line over its node set — Graph.SupersetOfLine on the
// frozen image, without map lookups.
func (c *CSR) SupersetOfLine() bool {
	for i := 0; i+1 < len(c.nodes); i++ {
		// Binary search keeps wide rows cheap.
		if _, found := slices.BinarySearch(c.Row(i), c.nodes[i+1]); !found {
			return false
		}
	}
	return true
}
