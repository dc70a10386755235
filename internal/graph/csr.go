package graph

// This file provides the frozen form of a Graph: a compressed-sparse-row
// adjacency image over dense node indices. Index i names the i-th smallest
// identifier, so index order is identifier order: a row of ascending
// indices is the row Algorithm 1 reads, at half the width, and membership
// is one branchless binary search (SearchRow) with no identifier → row
// hash probe. The Jacobi executor (linearization with memory) runs its
// whole round on this image: every node proposes against the same
// round-start rows, and MergeInPlace folds the proposals into the next
// image, over the same array while it fits.
//
// Only MergeInPlace writes a CSR after construction, so between its calls
// a CSR is safe for concurrent readers without locking — what the parallel
// proposal phase relies on; every other method, Merge and WithEdges
// included, leaves its receiver untouched.
// Its mutable sibling is the same rows as one []int32 per node (DenseRows,
// and FreezeRows back), the state of linearize's in-place step. A Graph or
// a generator's edge list goes in (NewCSR, DenseRows, build) and a Graph
// comes out (CSR.Graph); nothing in between translates an identifier.

import (
	"slices"
	"sync"

	"repro/internal/ids"
)

// CSR is a compressed-sparse-row snapshot of a Graph over dense node
// indices; HasEdge and WithEdges are adapters for callers that hold
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

// build is the image of the graph over nodes whose edges join nodes[ends[2k]]
// and nodes[ends[2k+1]] for every k, self-loops and repeats collapsing as
// under AddEdge; it takes ends over and overwrites them. It ranks the
// nodes once and sorts no row: a counting sort puts the arcs into per-node
// buckets, and one transpose pass over the buckets in ascending order
// writes every row ascending, a repeat as its row's last element.
func build(nodes []ids.ID, ends []int32) *CSR {
	sorted := slices.Clone(nodes)
	ids.SortAsc(sorted)
	c := &CSR{nodes: slices.Compact(sorted)}
	rank := make([]int32, len(nodes))
	for p, v := range nodes {
		i, _ := slices.BinarySearch(c.nodes, v)
		rank[p] = int32(i)
	}
	ends = ends[:len(ends)&^1]
	for k, p := range ends {
		ends[k] = rank[p]
	}
	n := len(c.nodes)
	off := make([]int32, n+1)
	for k := 0; k < len(ends); k += 2 {
		if a, b := ends[k], ends[k+1]; a != b {
			off[a+1]++
			off[b+1]++
		}
	}
	for v := 0; v < n; v++ {
		off[v+1] += off[v]
	}
	fill := slices.Clone(off[:n]) // where v's bucket, then v's row, takes its next element
	arcs := make([]int32, off[n])
	for k := 0; k < len(ends); k += 2 {
		if a, b := ends[k], ends[k+1]; a != b {
			arcs[fill[a]], arcs[fill[b]] = b, a
			fill[a]++
			fill[b]++
		}
	}
	c.nbr = ends[:off[n]] // ends is spent: its array takes the rows
	copy(fill, off)
	for u := int32(0); u < int32(n); u++ {
		for _, v := range arcs[off[u]:off[u+1]] {
			if f := fill[v]; f == off[v] || c.nbr[f-1] != u {
				c.nbr[f] = u
				fill[v]++
			}
		}
	}
	// Close the gaps the repeats left, moving each row left into place.
	c.row = make([]int32, n+1)
	for v := 0; v < n; v++ {
		c.row[v+1] = c.row[v] + int32(copy(c.nbr[c.row[v]:], c.nbr[off[v]:fill[v]]))
	}
	c.nbr = c.nbr[:c.row[n]]
	return c
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
// whether it is there: slices.BinarySearch's result, by a branchless lower
// bound. The answer lies in row[base : base+n+1]; each step compares the
// last entry of the lower half and turns the comparison into a mask that
// moves base past that half or not, so the loop runs ⌈log₂(len+1)⌉ times
// whatever x is and has no data-dependent branch to mispredict: on the
// round model's rows of a dozen or so entries, a branch on the comparison
// mispredicts about every other step.
func SearchRow(row []int32, x int32) (int, bool) {
	base := 0
	for n := len(row); n > 0; n >>= 1 {
		half := n - n>>1
		base += half & int((int64(row[base+half-1])-int64(x))>>63)
	}
	return base, base < len(row) && row[base] == x
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
// edge of the sorted line over its node set (it may contain more edges).
// This is the fixed point of linearization *with memory*, which never
// removes edges; a Graph is checked as NewCSR(g).SupersetOfLine().
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
	return c.Merge(new(Merger), [][]Pair{pairs}, workers)
}

// Merger is the scratch of CSR.Merge and CSR.MergeInPlace, reusable across
// calls so that a per-round caller allocates nothing of its own once the
// buffers have reached their size. It describes the last call: the winners
// (Won) and each row's additions (Added).
type Merger struct {
	// Won marks, per input pair of the last merge (the buffers read in
	// order and numbered across them), the pairs that added their edge: the
	// first of each run of equal pairs.
	Won []bool

	keys []uint64 // B<<32 | input position, bucketed by A
	off  []int32  // bucket a of keys and of hi starts at off[a]
	hi   []int32  // per bucket a, the cnt[a] distinct B ascending: row a's additions above a
	cnt  []int32
	lo   []int32 // per row b, the A of the pairs it won, ascending: its additions below b
	loAt []int32 // row b's part of lo starts at loAt[b]
	cur  []int32 // write cursors of the two scatters
	row  []int32 // the next image's row offsets; after MergeInPlace, the consumed image's
}

// Added returns what the last merge added to row i: the new neighbours
// below i and those above i, each ascending, read-only views that the next
// merge overwrites. ok is false before the first merge.
func (m *Merger) Added(i int) (below, above []int32, ok bool) {
	if m.loAt == nil {
		return nil, nil, false
	}
	below, above = m.added(i)
	return below, above, true
}

func (m *Merger) added(i int) (below, above []int32) {
	return m.lo[m.loAt[i]:m.loAt[i+1]], m.hi[m.off[i] : m.off[i]+m.cnt[i]]
}

// Merge returns the snapshot c plus the pairs in props, whose buffers are
// read in order as one list; c is left as it was. Every pair must be absent
// from c; equal pairs may repeat, and the first in input order is the one
// that counts as adding the edge (m.Won) — what Graph.AddEdge would report
// pair by pair. No pairs returns c itself, and m then reports nothing won
// and nothing added.
//
// The pairs are bucketed by A in input order (a counting sort) and each
// bucket is sorted on B<<32 | position: the first of every run of equal B
// is the winner, and the bucket's distinct B are row A's additions.
// Scattering the winners by B in bucket order gives each row its additions
// from below, again ascending; one merge per touched row writes the next
// image. Sorting and merging are row-local and run on up to workers
// goroutines; the result does not depend on how many.
func (c *CSR) Merge(m *Merger, props [][]Pair, workers int) *CSR {
	if !m.plan(c, props, workers) {
		return c
	}
	out := &CSR{nodes: c.nodes, row: slices.Clone(m.row)}
	out.nbr = make([]int32, out.row[len(c.nodes)])
	m.writeRows(c, out, workers)
	return out
}

// MergeInPlace makes c the snapshot Merge would return — the same rows, the
// same m.Won and m.Added — and consumes c to do it: every row view of c is
// stale afterwards. When the merged rows fit the capacity of c's array they
// are rewritten in it, from the last row down: a row's new start is never
// before its old one, so no row is overwritten before it is read. Otherwise
// they go into a fresh array with room for half as many again, written as
// Merge writes them. A caller that merges round after round thus allocates
// an image only when the graph outgrows the headroom of the last one.
func (c *CSR) MergeInPlace(m *Merger, props [][]Pair, workers int) {
	if !m.plan(c, props, workers) {
		return
	}
	next := CSR{nodes: c.nodes, row: m.row}
	if size := int(m.row[len(c.nodes)]); size > cap(c.nbr) {
		next.nbr = make([]int32, size, size+size/2)
		m.writeRows(c, &next, workers)
	} else {
		next.nbr = c.nbr[:size]
		m.shiftRows(c.row, &next)
	}
	m.row = c.row // spent: the next plan's scratch
	*c = next
}

// plan does what Merge and MergeInPlace share: it picks the winners,
// builds every row's addition lists and writes the next image's row offsets
// into m.row. It reports whether there is anything to add.
func (m *Merger) plan(c *CSR, props [][]Pair, workers int) bool {
	n, total := len(c.nodes), 0
	for _, ps := range props {
		total += len(ps)
	}
	m.Won, m.keys, m.hi = resized(m.Won, total), resized(m.keys, total), resized(m.hi, total)
	m.off, m.cnt, m.loAt, m.cur = resized(m.off, n+1), resized(m.cnt, n+1), resized(m.loAt, n+1), resized(m.cur, n+1)
	m.row = resized(m.row, n+1)
	clear(m.Won)
	clear(m.off)
	clear(m.loAt)
	off, cnt, loAt, cur, row := m.off, m.cnt, m.loAt, m.cur, m.row
	if total == 0 {
		clear(cnt)
		return false
	}

	for _, ps := range props {
		for _, p := range ps {
			off[p.A+1]++
		}
	}
	for a := 0; a < n; a++ {
		off[a+1] += off[a]
	}
	copy(cur, off)
	seq := uint64(0)
	for _, ps := range props {
		for _, p := range ps {
			m.keys[cur[p.A]] = uint64(p.B)<<32 | seq
			cur[p.A]++
			seq++
		}
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
	row[0] = 0
	for a := 0; a < n; a++ {
		for _, b := range m.hi[off[a] : off[a]+cnt[a]] {
			m.lo[cur[b]] = int32(a)
			cur[b]++
		}
		row[a+1] = row[a] + c.row[a+1] - c.row[a] + loAt[a+1] - loAt[a] + cnt[a]
	}
	return true
}

// writeRows writes every row of the planned image out, c's row merged with
// its additions, into an array of its own, on up to workers goroutines.
func (m *Merger) writeRows(c, out *CSR, workers int) {
	fanOut(len(c.nodes), workers, func(i int) {
		old, dst := c.Row(i), out.nbr[out.row[i]:out.row[i+1]]
		if len(dst) == len(old) {
			copy(dst, old)
			return
		}
		// lo < i < hi, so the two addition lists are one ascending sequence.
		below, above := m.added(i)
		oi, di := 0, 0
		for _, adds := range [2][]int32{below, above} {
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
}

// shiftRows writes the planned image over the array whose rows start at
// oldRow, last row first and each row from its end: every write lands at or
// after the position it reads from, and before the start of the rows above,
// which are already in place. The rows below the lowest one that gains an
// entry keep their place, and the walk stops at them.
func (m *Merger) shiftRows(oldRow []int32, out *CSR) {
	nbr := out.nbr
	for i := len(oldRow) - 2; i >= 0 && out.row[i+1] != oldRow[i+1]; i-- {
		below, above := m.added(i)
		lo, oi, di := oldRow[i], oldRow[i+1], out.row[i+1]
		for _, adds := range [2][]int32{above, below} {
			for k := len(adds) - 1; k >= 0; k-- {
				x := adds[k]
				for ; oi > lo && nbr[oi-1] > x; oi, di = oi-1, di-1 {
					nbr[di-1] = nbr[oi-1]
				}
				di--
				nbr[di] = x
			}
		}
		copy(nbr[out.row[i]:di], nbr[lo:oi])
	}
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

// resized returns s with length n and unspecified contents, reusing its
// array. A grown array has append's amortized headroom, so a length that
// creeps up round by round does not reallocate every round.
func resized[T any](s []T, n int) []T {
	return slices.Grow(s[:0], n)[:n]
}
