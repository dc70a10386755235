package trace

import (
	"sync"

	"repro/internal/graph"
	"repro/internal/metrics"
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

// Distance is the scalar convergence metric: missing + surplus edges.
func (s ProbeSample) Distance() int { return s.Missing + s.Surplus }

// Probe is the convergence monitor: fed one graph snapshot per round (its
// Observe method matches linearize.Config.OnRound and the cluster probes of
// the message-level protocols), it records the round-by-round
// distance-to-linearized and connectivity series and detects stalls. When
// Tracer is set, every sample is also emitted as EvProbe events, so JSONL
// traces carry the series for offline replay; the verdict over that series
// (converged, connected throughout, oscillations) is Analysis.Verdict,
// nowhere else.
type Probe struct {
	// Tracer, if set, receives each sample as EvProbe events.
	Tracer Tracer
	// StallWindow is how many consecutive non-improving rounds count as a
	// stall (<=0: DefaultStallWindow).
	StallWindow int

	mu      sync.Mutex
	samples []ProbeSample
}

// DefaultStallWindow is the stall threshold of a zero-value Probe.
const DefaultStallWindow = 16

// Observe records a sample for the given round. The graph is read, never
// retained. Safe for use as a linearize OnRound hook or a scheduled
// cluster probe.
func (p *Probe) Observe(round int, g *graph.Graph) {
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
	p.mu.Lock()
	p.samples = append(p.samples, s)
	p.mu.Unlock()
	if p.Tracer != nil {
		conn := 0.0
		if s.Connected {
			conn = 1.0
		}
		t := int64(round)
		p.Tracer.Emit(Event{T: t, Type: EvProbe, Kind: "distance", Value: float64(s.Distance())})
		// The decomposition travels too: missing==0 is the global-consistency
		// criterion that stays meaningful when legitimate surplus edges
		// (route-cache state) keep the scalar distance nonzero.
		p.Tracer.Emit(Event{T: t, Type: EvProbe, Kind: "missing", Value: float64(s.Missing)})
		p.Tracer.Emit(Event{T: t, Type: EvProbe, Kind: "surplus", Value: float64(s.Surplus)})
		p.Tracer.Emit(Event{T: t, Type: EvProbe, Kind: "connected", Value: conn})
		p.Tracer.Emit(Event{T: t, Type: EvProbe, Kind: "multi-left", Value: float64(s.MultiLeft)})
		p.Tracer.Emit(Event{T: t, Type: EvProbe, Kind: "multi-right", Value: float64(s.MultiRight)})
		p.Tracer.Emit(Event{T: t, Type: EvProbe, Kind: "edges", Value: float64(s.Edges)})
	}
}

// Samples returns a copy of the recorded series, in observation order.
func (p *Probe) Samples() []ProbeSample {
	p.mu.Lock()
	defer p.mu.Unlock()
	return append([]ProbeSample(nil), p.samples...)
}

// Len returns the number of recorded samples.
func (p *Probe) Len() int {
	p.mu.Lock()
	defer p.mu.Unlock()
	return len(p.samples)
}

// Last returns the most recent sample (ok=false when empty).
func (p *Probe) Last() (ProbeSample, bool) {
	p.mu.Lock()
	defer p.mu.Unlock()
	if len(p.samples) == 0 {
		return ProbeSample{}, false
	}
	return p.samples[len(p.samples)-1], true
}

// Stalled reports whether the trailing StallWindow samples show no
// improvement of the distance metric while it is still nonzero.
func (p *Probe) Stalled() bool {
	window := p.StallWindow
	if window <= 0 {
		window = DefaultStallWindow
	}
	samples := p.Samples()
	if len(samples) <= window {
		return false
	}
	tail := samples[len(samples)-window-1:]
	best := tail[0].Distance()
	if best == 0 {
		return false
	}
	for _, s := range tail[1:] {
		if s.Distance() < best {
			return false
		}
	}
	return true
}

// SeriesFromEvents reconstructs the per-round convergence series from a
// replayed event stream: for each probe metric name it collects the (T,
// Value) points in stream order. This is the offline half of the JSONL
// format — what a trace viewer or a regression test uses to recompute the
// convergence story without re-running the simulation.
func SeriesFromEvents(events []Event) map[string]metrics.Series {
	out := make(map[string]metrics.Series)
	for _, e := range events {
		if e.Type != EvProbe {
			continue
		}
		s := out[e.Kind]
		s.Name = e.Kind
		s.Add(float64(e.T), e.Value)
		out[e.Kind] = s
	}
	return out
}
