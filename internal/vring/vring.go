// Package vring models the virtual ring of SSR/VRR and its consistency
// notions, in both of the paper's views:
//
//   - The *ring* view used by ISPRP: directed successor pointers. Local
//     consistency means every node has exactly one successor and exactly one
//     predecessor — which a loopy state (Fig. 1) and separate rings (Fig. 2)
//     both satisfy, which is why ISPRP needs flooding to certify global
//     consistency.
//   - The *line* view used by linearization: undirected virtual edges with
//     left/right neighbor sets. Here local consistency (every node has at
//     most one left and one right neighbor, and only the extremal nodes
//     have an empty side) plus connectedness *is* global consistency (§3).
//
// The package provides checkers for both views, the classification of
// global inconsistencies, and constructors for the exact example states of
// the paper's Figures 1 and 2.
package vring

import (
	"fmt"

	"repro/internal/graph"
	"repro/internal/ids"
)

// SuccMap is the directed ring view: each node's believed successor.
type SuccMap map[ids.ID]ids.ID

// Clone returns an independent copy.
func (s SuccMap) Clone() SuccMap {
	c := make(SuccMap, len(s))
	for k, v := range s {
		c[k] = v
	}
	return c
}

// LocallyConsistent reports whether every node has exactly one successor
// (structural: present in the map, pointing at a member node, not itself)
// and exactly one predecessor. This is the fixed point of ISPRP's local
// rewiring and deliberately does NOT imply global consistency.
func (s SuccMap) LocallyConsistent() bool {
	if len(s) < 2 {
		return true
	}
	preds := make(map[ids.ID]int, len(s))
	for v, succ := range s {
		if succ == v {
			return false
		}
		if _, ok := s[succ]; !ok {
			return false
		}
		preds[succ]++
	}
	for v := range s {
		if preds[v] != 1 {
			return false
		}
	}
	return true
}

// Cycles decomposes the successor permutation into its cycles. Nodes whose
// pointer chain leaves the map or repeats before closing are collected in
// broken. Cycles are canonicalized to start at their smallest member and
// sorted by that member.
func (s SuccMap) Cycles() (cycles [][]ids.ID, broken []ids.ID) {
	visited := ids.NewSet()
	var all []ids.ID
	for v := range s {
		all = append(all, v)
	}
	ids.SortAsc(all)
	for _, start := range all {
		if visited.Has(start) {
			continue
		}
		var path []ids.ID
		onPath := ids.NewSet()
		v := start
		for {
			if onPath.Has(v) {
				// Closed a cycle at v; anything on path before v is broken tail.
				i := 0
				for path[i] != v {
					i++
				}
				broken = append(broken, path[:i]...)
				cyc := append([]ids.ID(nil), path[i:]...)
				cycles = append(cycles, canonicalize(cyc))
				break
			}
			if visited.Has(v) {
				// Ran into a previously classified region: this tail is broken.
				broken = append(broken, path...)
				break
			}
			next, member := s[v]
			if !member {
				// Pointer left the node universe: the whole tail is broken.
				broken = append(broken, path...)
				break
			}
			onPath.Add(v)
			visited.Add(v)
			path = append(path, v)
			v = next
		}
	}
	ids.SortAsc(broken)
	return cycles, broken
}

func canonicalize(cyc []ids.ID) []ids.ID {
	min := 0
	for i, v := range cyc {
		if v < cyc[min] {
			min = i
		}
	}
	out := make([]ids.ID, 0, len(cyc))
	out = append(out, cyc[min:]...)
	out = append(out, cyc[:min]...)
	return out
}

// Consistency classifies the global state of a successor map.
type Consistency int

// The global states distinguished in §3.
const (
	// Consistent: one cycle visiting all nodes in sorted ring order.
	Consistent Consistency = iota
	// Loopy: one cycle visiting all nodes, but not in sorted order (Fig. 1).
	Loopy
	// Partitioned: more than one cycle — separate virtual rings (Fig. 2).
	Partitioned
	// Broken: structural damage (dangling pointers, shared successors).
	Broken
)

// String names the consistency class.
func (c Consistency) String() string {
	switch c {
	case Consistent:
		return "consistent"
	case Loopy:
		return "loopy"
	case Partitioned:
		return "partitioned"
	case Broken:
		return "broken"
	default:
		return "unknown"
	}
}

// Classify determines the global state of the successor map.
func (s SuccMap) Classify() Consistency {
	if len(s) < 2 {
		return Consistent
	}
	cycles, broken := s.Cycles()
	if len(broken) > 0 || !s.LocallyConsistent() {
		return Broken
	}
	if len(cycles) > 1 {
		return Partitioned
	}
	if len(cycles) == 1 && isSortedRingOrder(cycles[0]) {
		if len(cycles[0]) == len(s) {
			return Consistent
		}
		return Partitioned
	}
	return Loopy
}

// isSortedRingOrder reports whether the cycle (canonicalized to start at its
// smallest member) visits members in ascending identifier order.
func isSortedRingOrder(cyc []ids.ID) bool {
	for i := 1; i < len(cyc); i++ {
		if cyc[i-1] >= cyc[i] {
			return false
		}
	}
	return true
}

// GloballyConsistent reports whether the successor map forms the single
// sorted virtual ring over exactly the given node set.
func (s SuccMap) GloballyConsistent(nodes []ids.ID) bool {
	if len(s) != len(nodes) {
		return false
	}
	for _, v := range nodes {
		if _, ok := s[v]; !ok {
			return false
		}
	}
	return s.Classify() == Consistent
}

// Ring returns the canonical sorted-ring successor map over the given nodes.
func Ring(nodes []ids.ID) SuccMap {
	sorted := append([]ids.ID(nil), nodes...)
	ids.SortAsc(sorted)
	s := make(SuccMap, len(sorted))
	for i, v := range sorted {
		s[v] = sorted[(i+1)%len(sorted)]
	}
	return s
}

// ToGraph converts the successor pointers to the undirected virtual edge
// set of the line/linearization view (§4: "Unlike with ISPRP the edges in
// E_v are undirected").
func (s SuccMap) ToGraph() *graph.Graph {
	g := graph.New()
	for v, succ := range s {
		g.AddNode(v)
		if v != succ {
			g.AddEdge(v, succ)
		}
	}
	return g
}

// --- Line view -----------------------------------------------------------

// LineReport is the line-view local-consistency diagnosis of a virtual
// graph, the quantity the linearization algorithm drives to zero.
type LineReport struct {
	// MultiLeft / MultiRight list nodes with more than one left/right
	// neighbor (Fig. 1's nodes 21,25 and 1,4 respectively).
	MultiLeft, MultiRight []ids.ID
	// EmptyLeft / EmptyRight list nodes with no left/right neighbor. In a
	// consistent line exactly the minimum node has an empty left side and
	// exactly the maximum node an empty right side.
	EmptyLeft, EmptyRight []ids.ID
	// Components is the number of connected components of the virtual graph.
	Components int
}

// LocallyConsistent reports whether the line view is locally consistent:
// no node has two neighbors on the same side, and only the extremal nodes
// have an empty side.
func (r LineReport) LocallyConsistent() bool {
	return len(r.MultiLeft) == 0 && len(r.MultiRight) == 0 &&
		len(r.EmptyLeft) == 1 && len(r.EmptyRight) == 1
}

// Violations returns the count of line-view local inconsistencies — the
// convergence progress metric used by the experiment harnesses.
func (r LineReport) Violations() int {
	v := len(r.MultiLeft) + len(r.MultiRight)
	if len(r.EmptyLeft) > 1 {
		v += len(r.EmptyLeft) - 1
	}
	if len(r.EmptyRight) > 1 {
		v += len(r.EmptyRight) - 1
	}
	return v
}

// String summarizes the report.
func (r LineReport) String() string {
	return fmt.Sprintf("multiL=%d multiR=%d emptyL=%d emptyR=%d comps=%d",
		len(r.MultiLeft), len(r.MultiRight), len(r.EmptyLeft), len(r.EmptyRight), r.Components)
}

// AnalyzeLine diagnoses the line view of an undirected virtual graph.
func AnalyzeLine(g *graph.Graph) LineReport {
	var rep LineReport
	for _, v := range g.Nodes() {
		left, right := 0, 0
		for _, u := range g.Neighbors(v) {
			if ids.DirOf(v, u) == ids.Left {
				left++
			} else {
				right++
			}
		}
		switch {
		case left == 0:
			rep.EmptyLeft = append(rep.EmptyLeft, v)
		case left > 1:
			rep.MultiLeft = append(rep.MultiLeft, v)
		}
		switch {
		case right == 0:
			rep.EmptyRight = append(rep.EmptyRight, v)
		case right > 1:
			rep.MultiRight = append(rep.MultiRight, v)
		}
	}
	rep.Components = len(g.Components())
	return rep
}

// GloballyConsistentLine reports whether the virtual graph is exactly the
// sorted line — the §3 theorem made executable: a connected, line-locally
// consistent graph is the sorted line. (Callers wanting the closed ring use
// Graph.IsSortedRing.)
func GloballyConsistentLine(g *graph.Graph) bool {
	return g.IsLinearized()
}

// LineDistance measures how far a virtual graph is from the sorted line:
// missing counts consecutive-identifier edges not yet present, surplus
// counts edges that are neither consecutive nor the potential wrap edge
// between the extremal nodes (ring state, exempt from linearization — §4).
// Both are zero exactly on the sorted line or the sorted ring; their sum is
// the distance-to-linearized metric the convergence probes chart per round.
func LineDistance(g *graph.Graph) (missing, surplus int) {
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

// --- The paper's figures as executable states -----------------------------

// FigureNodes are the identifiers used in the paper's Figures 1–3.
var FigureNodes = []ids.ID{1, 4, 9, 13, 18, 21, 25}

// LoopyExample reconstructs Figure 1: a successor structure in which every
// node has exactly one successor and one predecessor (ISPRP-locally
// consistent) yet the ring visits the identifier space twice. In the line
// view, nodes 1 and 4 have two right neighbors and nodes 21 and 25 two left
// neighbors — exactly the diagnosis in §3.
func LoopyExample() SuccMap {
	// Each node points two positions ahead in sorted order; with 7 nodes
	// this is a single cycle winding twice around the identifier space:
	// 1→9→18→25→4→13→21→1.
	s := make(SuccMap, len(FigureNodes))
	n := len(FigureNodes)
	for i, v := range FigureNodes {
		s[v] = FigureNodes[(i+2)%n]
	}
	return s
}

// SeparateRingsExample reconstructs Figure 2: nodes 1, 9, 18 and 4, 13, 21
// form two disjoint virtual rings — locally consistent, globally
// partitioned.
func SeparateRingsExample() SuccMap {
	return SuccMap{
		1: 9, 9: 18, 18: 1,
		4: 13, 13: 21, 21: 4,
	}
}

// LoopyState generalizes Figure 1 to arbitrary size: every node points
// step positions ahead in sorted order. When gcd(step, n) = 1 the result
// is a single ISPRP-locally-consistent cycle that winds step times around
// the identifier space — loopy for any step > 1. Used by the scaled E1
// benchmarks.
func LoopyState(nodes []ids.ID, step int) SuccMap {
	sorted := append([]ids.ID(nil), nodes...)
	ids.SortAsc(sorted)
	n := len(sorted)
	s := make(SuccMap, n)
	if n == 0 {
		return s
	}
	for i, v := range sorted {
		s[v] = sorted[(i+step)%n]
	}
	return s
}

// PartitionedState generalizes Figure 2: the sorted nodes are dealt
// round-robin into k disjoint sorted rings.
func PartitionedState(nodes []ids.ID, k int) SuccMap {
	sorted := append([]ids.ID(nil), nodes...)
	ids.SortAsc(sorted)
	if k < 1 {
		k = 1
	}
	groups := make([][]ids.ID, k)
	for i, v := range sorted {
		groups[i%k] = append(groups[i%k], v)
	}
	s := make(SuccMap, len(sorted))
	for _, g := range groups {
		for i, v := range g {
			if len(g) > 1 {
				s[v] = g[(i+1)%len(g)]
			}
		}
	}
	return s
}
