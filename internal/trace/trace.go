// Package trace renders virtual-ring and line-view states as ASCII art,
// reproducing the visual content of the paper's Figures 1–3: the loopy
// state drawn as a ring and as a line (Fig. 1), separate rings (Fig. 2),
// and the step-by-step progress of the linearization algorithm (Fig. 3).
package trace

import (
	"fmt"
	"sort"
	"strings"

	"repro/internal/graph"
	"repro/internal/ids"
	"repro/internal/vring"
)

// RenderRing draws the successor structure as cycles, e.g.
//
//	ring 1: 1 -> 9 -> 18 -> (1)
//	ring 2: 4 -> 13 -> 21 -> (4)
//
// Broken tails, if any, are listed afterwards.
func RenderRing(s vring.SuccMap) string {
	cycles, broken := s.Cycles()
	var b strings.Builder
	for i, cyc := range cycles {
		fmt.Fprintf(&b, "ring %d: ", i+1)
		for _, v := range cyc {
			fmt.Fprintf(&b, "%s -> ", v)
		}
		fmt.Fprintf(&b, "(%s)\n", cyc[0])
	}
	if len(broken) > 0 {
		fmt.Fprintf(&b, "broken: %v\n", broken)
	}
	return b.String()
}

// RenderLine draws the line view of a virtual graph: nodes in identifier
// order with each node's left/right neighbor sets, flagging line-local
// inconsistencies the way §3 diagnoses Fig. 1 ("nodes 1 and 4 have two
// right neighbors each; nodes 21 and 25 have two left neighbors each").
func RenderLine(g *graph.Graph) string {
	var b strings.Builder
	for _, v := range g.Nodes() {
		var left, right []ids.ID
		for _, u := range g.Neighbors(v) {
			if ids.DirOf(v, u) == ids.Left {
				left = append(left, u)
			} else {
				right = append(right, u)
			}
		}
		flag := ""
		if len(left) > 1 {
			flag += " !multi-left"
		}
		if len(right) > 1 {
			flag += " !multi-right"
		}
		fmt.Fprintf(&b, "%6s  L=%-18s R=%-18s%s\n", v, fmtIDs(left), fmtIDs(right), flag)
	}
	return b.String()
}

func fmtIDs(xs []ids.ID) string {
	if len(xs) == 0 {
		return "{}"
	}
	parts := make([]string, len(xs))
	for i, x := range xs {
		parts[i] = x.String()
	}
	return "{" + strings.Join(parts, ",") + "}"
}

// RenderEdgesCompact draws the edge set as a single sorted list, e.g.
// "{1,9} {4,13} …" — the most compact state dump for round-by-round traces.
func RenderEdgesCompact(g *graph.Graph) string {
	edges := g.Edges()
	parts := make([]string, len(edges))
	for i, e := range edges {
		parts[i] = e.String()
	}
	return strings.Join(parts, " ")
}

// RenderArcs draws the line view as an arc diagram on one axis: nodes laid
// out in identifier order, one row per edge showing its span. Long edges
// (which linearization progressively shortens) are visually obvious:
//
//	1    4    9   13   18   21   25
//	o====o
//	     o=========o
//	o==============o                 <- long edge
func RenderArcs(g *graph.Graph) string {
	nodes := g.Nodes()
	pos := make(map[ids.ID]int, len(nodes))
	const cell = 5
	for i, v := range nodes {
		pos[v] = i * cell
	}
	var b strings.Builder
	// Axis row with identifiers.
	for i, v := range nodes {
		label := v.String()
		if i > 0 {
			b.WriteString(strings.Repeat(" ", cell-len(label)))
		}
		b.WriteString(label)
	}
	b.WriteString("\n")
	edges := g.Edges()
	sort.Slice(edges, func(i, j int) bool {
		li := ids.LineDist(edges[i].U, edges[i].V)
		lj := ids.LineDist(edges[j].U, edges[j].V)
		if li != lj {
			return li < lj
		}
		return edges[i].U < edges[j].U
	})
	for _, e := range edges {
		a, c := pos[e.U], pos[e.V]
		if a > c {
			a, c = c, a
		}
		line := strings.Repeat(" ", a) + "o" + strings.Repeat("=", c-a-1) + "o"
		b.WriteString(line)
		b.WriteString("\n")
	}
	return b.String()
}

// RoundTrace accumulates per-round snapshots of a linearization run and
// renders them as the Fig. 3-style step-by-step story.
type RoundTrace struct {
	titles []string
	frames []string
}

// Observe records the state after the given round. Use as the OnRound hook
// of a linearize.Engine.
func (rt *RoundTrace) Observe(round int, g *graph.Graph) {
	rt.titles = append(rt.titles, fmt.Sprintf("after round %d (%d edges)", round+1, g.NumEdges()))
	rt.frames = append(rt.frames, RenderArcs(g))
}

// ObserveInitial records the starting state before any round.
func (rt *RoundTrace) ObserveInitial(g *graph.Graph) {
	rt.titles = append(rt.titles, fmt.Sprintf("initial state (%d edges)", g.NumEdges()))
	rt.frames = append(rt.frames, RenderArcs(g))
}

// Len returns the number of recorded frames.
func (rt *RoundTrace) Len() int { return len(rt.frames) }

// String renders all frames in order.
func (rt *RoundTrace) String() string {
	var b strings.Builder
	for i := range rt.frames {
		fmt.Fprintf(&b, "--- %s ---\n%s\n", rt.titles[i], rt.frames[i])
	}
	return b.String()
}
