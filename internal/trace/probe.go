package trace

import (
	"repro/internal/graph"
	"repro/internal/vring"
)

// ProbeSample is one per-round convergence observation: the
// distance-to-linearized decomposition, the connectivity invariant, and the
// line-view local-consistency cardinalities (§3's diagnosis of Fig. 1).
type ProbeSample struct {
	Round      int
	Missing    int // consecutive line edges not yet present
	Surplus    int // non-line, non-wrap edges still present
	Edges      int
	Connected  bool
	MultiLeft  int // nodes with >1 left neighbor
	MultiRight int // nodes with >1 right neighbor
}

// Probe is the convergence monitor: fed one graph snapshot per round (its
// Observe method matches linearize.Config.OnRound and the cluster probes of
// the message-level protocols), it emits each sample to Tracer as EvProbe
// events and keeps nothing. The series, the last sample and the verdict
// over it (converged, connected throughout, oscillations) are folded by
// Analysis — live when it is teed into Tracer, offline from a JSONL trace
// through AnalyzeStream — and nowhere else.
type Probe struct {
	// Tracer receives each sample as EvProbe events; nil makes Observe a
	// no-op.
	Tracer Tracer
}

// Observe emits the sample for the given round. The graph is read, never
// retained. Safe for use as a linearize OnRound hook or a scheduled
// cluster probe.
func (p *Probe) Observe(round int, g *graph.Graph) {
	if p.Tracer == nil {
		return
	}
	missing, surplus := vring.LineDistance(g)
	rep := vring.AnalyzeLine(g)
	s := ProbeSample{
		Round:      round,
		Missing:    missing,
		Surplus:    surplus,
		Edges:      g.NumEdges(),
		Connected:  rep.Components <= 1,
		MultiLeft:  len(rep.MultiLeft),
		MultiRight: len(rep.MultiRight),
	}
	conn := 0.0
	if s.Connected {
		conn = 1.0
	}
	t := int64(round)
	// missing==0 is the global-consistency criterion; surplus edges may be
	// legitimate route-cache state, so they travel as a series of their own.
	p.Tracer.Emit(Event{T: t, Type: EvProbe, Kind: "missing", Value: float64(s.Missing)})
	p.Tracer.Emit(Event{T: t, Type: EvProbe, Kind: "surplus", Value: float64(s.Surplus)})
	p.Tracer.Emit(Event{T: t, Type: EvProbe, Kind: "connected", Value: conn})
	p.Tracer.Emit(Event{T: t, Type: EvProbe, Kind: "multi-left", Value: float64(s.MultiLeft)})
	p.Tracer.Emit(Event{T: t, Type: EvProbe, Kind: "multi-right", Value: float64(s.MultiRight)})
	p.Tracer.Emit(Event{T: t, Type: EvProbe, Kind: "edges", Value: float64(s.Edges)})
}
