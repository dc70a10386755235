package graph

// This file provides the frozen form of a Graph: a compressed-sparse-row
// adjacency image over dense node indices. Index i names the i-th smallest
// identifier, so index order is identifier order: a row of ascending
// indices is the row Algorithm 1 reads, at half the width, and membership
// is one binary search with no identifier → row hash probe. The Jacobi
// executor (linearization with memory) runs its whole round on this image:
// every node proposes against the same round-start rows, and Merge folds
// the proposals into the next image.
//
// A CSR is immutable after construction and therefore safe for concurrent
// readers without locking — what the parallel proposal phase relies on.
// Its mutable sibling is the same rows as one []int32 per node (DenseRows,
// and FreezeRows back), the state of linearize's in-place step. A Graph
// goes in (NewCSR, DenseRows) and a Graph comes out (CSR.Graph); nothing in
// between translates an identifier.

import (
	"slices"
	"sync"

	"repro/internal/ids"
)

// CSR is an immutable compressed-sparse-row snapshot of a Graph over dense
// node indices; HasEdge and WithEdges are adapters for callers that hold
// identifiers.
type CSR struct {
	nodes []ids.ID // ascending; index i names nodes[i]
	row   []int32  // len(nodes)+1 offsets into nbr
	nbr   []int32  // concatenated rows of neighbour indices, each strictly ascending
}

// Pair is an undirected edge between the nodes at dense indices A < B.
type Pair struct{ A, B int32 }

// NewCSR snapshots g.
func NewCSR(g *Graph) *CSR {
	nodes := g.Nodes()
	n := len(nodes)
	c := &CSR{nodes: nodes, row: make([]int32, n+1), nbr: make([]int32, 0, 2*g.NumEdges())}
	// The identifier → index table lives for this build only: a run builds
	// its image once, and nothing after that translates on a hot path.
	index := make(map[ids.ID]int32, n)
	for i, v := range nodes {
		index[v] = int32(i)
	}
	for i, v := range nodes {
		for _, u := range g.Neighbors(v) {
			c.nbr = append(c.nbr, index[u])
		}
		c.row[i+1] = int32(len(c.nbr))
	}
	return c
}

// DenseRows returns g's nodes ascending and g's rows over their dense
// indices, one mutable []int32 per node: NewCSR's image thawed. The rows
// are carved out of one slab, each capped at its length so a later insert
// reallocates that row alone.
func DenseRows(g *Graph) ([]ids.ID, [][]int32) {
	c := NewCSR(g)
	rows := make([][]int32, len(c.nodes))
	for i := range rows {
		rows[i] = c.nbr[c.row[i]:c.row[i+1]:c.row[i+1]]
	}
	return c.nodes, rows
}

// FreezeRows is the image of the graph whose node i is nodes[i] with the
// neighbours rows[i], ascending dense indices. It copies the rows.
func FreezeRows(nodes []ids.ID, rows [][]int32) *CSR {
	c := &CSR{nodes: nodes, row: make([]int32, len(nodes)+1)}
	for i, r := range rows {
		c.row[i+1] = c.row[i] + int32(len(r))
	}
	c.nbr = make([]int32, 0, c.row[len(nodes)])
	for _, r := range rows {
		c.nbr = append(c.nbr, r...)
	}
	return c
}

// Graph builds the Graph c is the image of. Like Clone it carves the rows
// out of two slabs, each row capped at its length.
func (c *CSR) Graph() *Graph {
	g := &Graph{adj: make(map[ids.ID]*row, len(c.nodes))}
	rows := make([]row, len(c.nodes))
	nbrs := make([]ids.ID, len(c.nbr))
	for k, j := range c.nbr {
		nbrs[k] = c.nodes[j]
	}
	for i, v := range c.nodes {
		rows[i] = nbrs[c.row[i]:c.row[i+1]:c.row[i+1]]
		g.adj[v] = &rows[i]
	}
	return g
}

// NumEdges returns the undirected edge count.
func (c *CSR) NumEdges() int { return len(c.nbr) / 2 }

// Row returns node i's ascending neighbour indices, a read-only view.
func (c *CSR) Row(i int) []int32 { return c.nbr[c.row[i]:c.row[i+1]] }

// Has reports whether nodes i and j are adjacent, by binary search in i's row.
func (c *CSR) Has(i, j int32) bool {
	_, found := SearchRow(c.nbr[c.row[i]:c.row[i+1]], j)
	return found
}

// SearchRow returns where x sits, or would sit, in the ascending row and
// whether it is there: slices.BinarySearch without the generic comparison.
func SearchRow(row []int32, x int32) (int, bool) {
	lo, hi := 0, len(row)
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		if row[mid] < x {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo, lo < len(row) && row[lo] == x
}

// HasEdge reports whether the snapshot contains the undirected edge {u,v}.
func (c *CSR) HasEdge(u, v ids.ID) bool {
	i, okU := slices.BinarySearch(c.nodes, u)
	j, okV := slices.BinarySearch(c.nodes, v)
	return okU && okV && c.Has(int32(i), int32(j))
}

// MaxDegree returns the maximum degree in the snapshot.
func (c *CSR) MaxDegree() int {
	maxDeg := int32(0)
	for i := range c.nodes {
		maxDeg = max(maxDeg, c.row[i+1]-c.row[i])
	}
	return int(maxDeg)
}

// SupersetOfLine reports whether the snapshot contains every consecutive
// edge of the sorted line over its node set, like Graph.SupersetOfLine.
func (c *CSR) SupersetOfLine() bool {
	for i := 0; i+1 < len(c.nodes); i++ {
		if !c.Has(int32(i), int32(i+1)) {
			return false
		}
	}
	return true
}

// WithEdges is Merge for callers that hold identifiers: c plus the given
// edges. Edges already in c, duplicates, self-loops and edges with an
// endpoint outside c's node set are ignored; nothing to add returns c.
func (c *CSR) WithEdges(adds []Edge, workers int) *CSR {
	pairs := make([]Pair, 0, len(adds))
	for _, e := range adds {
		i, okU := slices.BinarySearch(c.nodes, e.U)
		j, okV := slices.BinarySearch(c.nodes, e.V)
		if a, b := int32(min(i, j)), int32(max(i, j)); okU && okV && a != b && !c.Has(a, b) {
			pairs = append(pairs, Pair{a, b})
		}
	}
	return c.Merge(new(Merger), pairs, workers)
}

// Merger is the scratch of CSR.Merge, reusable across calls so that a
// per-round caller allocates nothing but the next image.
type Merger struct {
	// Won marks, per input pair of the last Merge, the pairs that added
	// their edge: the first of each run of equal pairs.
	Won []bool

	keys []uint64 // B<<32 | input position, bucketed by A
	off  []int32  // bucket a of keys and of hi starts at off[a]
	hi   []int32  // per bucket a, the cnt[a] distinct B ascending: row a's additions above a
	cnt  []int32
	lo   []int32 // per row b, the A of the pairs it won, ascending: its additions below b
	loAt []int32 // row b's part of lo starts at loAt[b]
	cur  []int32 // write cursors of the two scatters
}

// Merge returns the snapshot c plus pairs. Every pair must be absent from
// c; equal pairs may repeat, and the first in input order is the one that
// counts as adding the edge (m.Won) — what Graph.AddEdge would report pair
// by pair. No pairs returns c itself.
//
// The pairs are bucketed by A in input order (a counting sort) and each
// bucket is sorted on B<<32 | position: the first of every run of equal B
// is the winner, and the bucket's distinct B are row A's additions.
// Scattering the winners by B in bucket order gives each row its additions
// from below, again ascending; one merge per touched row writes the next
// image. Sorting and merging are row-local and run on up to workers
// goroutines; the result does not depend on how many.
func (c *CSR) Merge(m *Merger, pairs []Pair, workers int) *CSR {
	if len(pairs) == 0 {
		return c
	}
	n := len(c.nodes)
	m.Won, m.keys, m.hi = resized(m.Won, len(pairs)), resized(m.keys, len(pairs)), resized(m.hi, len(pairs))
	m.off, m.cnt, m.loAt, m.cur = resized(m.off, n+1), resized(m.cnt, n+1), resized(m.loAt, n+1), resized(m.cur, n+1)
	clear(m.Won)
	clear(m.off)
	clear(m.loAt)
	off, cnt, loAt, cur := m.off, m.cnt, m.loAt, m.cur

	for _, p := range pairs {
		off[p.A+1]++
	}
	for a := 0; a < n; a++ {
		off[a+1] += off[a]
	}
	copy(cur, off)
	for seq, p := range pairs {
		m.keys[cur[p.A]] = uint64(p.B)<<32 | uint64(seq)
		cur[p.A]++
	}
	fanOut(n, workers, func(a int) {
		bucket := m.keys[off[a]:off[a+1]]
		slices.Sort(bucket)
		hi := m.hi[off[a]:off[a]]
		for _, key := range bucket {
			if b := int32(key >> 32); len(hi) == 0 || hi[len(hi)-1] != b {
				hi = append(hi, b)
				m.Won[uint32(key)] = true
			}
		}
		cnt[a] = int32(len(hi))
	})

	for a := 0; a < n; a++ {
		for _, b := range m.hi[off[a] : off[a]+cnt[a]] {
			loAt[b+1]++
		}
	}
	for b := 0; b < n; b++ {
		loAt[b+1] += loAt[b]
	}
	copy(cur, loAt)
	m.lo = resized(m.lo, int(loAt[n]))
	out := &CSR{nodes: c.nodes, row: make([]int32, n+1), nbr: make([]int32, len(c.nbr)+2*len(m.lo))}
	for a := 0; a < n; a++ {
		for _, b := range m.hi[off[a] : off[a]+cnt[a]] {
			m.lo[cur[b]] = int32(a)
			cur[b]++
		}
		out.row[a+1] = out.row[a] + c.row[a+1] - c.row[a] + loAt[a+1] - loAt[a] + cnt[a]
	}
	fanOut(n, workers, func(i int) {
		old, dst := c.Row(i), out.nbr[out.row[i]:out.row[i+1]]
		if len(dst) == len(old) {
			copy(dst, old)
			return
		}
		// lo < i < hi, so the two addition lists are one ascending sequence.
		oi, di := 0, 0
		for _, adds := range [2][]int32{m.lo[loAt[i]:loAt[i+1]], m.hi[off[i] : off[i]+cnt[i]]} {
			for _, x := range adds {
				for ; oi < len(old) && old[oi] < x; oi, di = oi+1, di+1 {
					dst[di] = old[oi]
				}
				dst[di] = x
				di++
			}
		}
		copy(dst[di:], old[oi:])
	})
	return out
}

// fanOut runs fn(i) for every i in [0,n), split into contiguous ranges over
// up to workers goroutines.
func fanOut(n, workers int, fn func(i int)) {
	workers = max(1, min(workers, n/2))
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := w * n / workers; i < (w+1)*n/workers; i++ {
				fn(i)
			}
		}()
	}
	wg.Wait()
}

// resized returns s with length n and unspecified contents, reusing its array.
func resized[T any](s []T, n int) []T {
	if cap(s) < n {
		return make([]T, n)
	}
	return s[:n]
}
