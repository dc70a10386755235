// Package linearize implements the paper's primary contribution: graph
// linearization as a self-stabilizing bootstrap for the virtual ring of SSR
// and VRR.
//
// Three algorithm variants from §2 (after Onus, Richa, Scheideler) are
// provided:
//
//   - Pure linearization (Algorithm 1): every node v sorts its neighbors
//     u_1 < … < u_k < v < u_{k+1} < … < u_n and *replaces* its edges with the
//     consecutive chain {u_1,u_2}, …, {u_k,v}, {v,u_{k+1}}, …, {u_{n-1},u_n}.
//     Converges, but may need many rounds.
//   - Linearization with memory: the chain edges are *added* and nothing is
//     removed. Average convergence drops to polylogarithmic, at the price of
//     unbounded per-node state.
//   - Linearization with shortcut neighbors (LSN): like memory, but every
//     node keeps at most one neighbor per exponentially growing identifier
//     interval per direction (always including the closest neighbor on each
//     side). Polylogarithmic convergence with O(log |space|) state.
//
// Two execution disciplines are supported (package sim): the synchronous
// round model that the literature's bounds are stated in, and a random
// sequential daemon in which one node at a time atomically applies its
// operation (the classic central-daemon model). A self-stabilizing
// algorithm must converge under both; the ablation benches compare them.
//
// Two semantics subtleties, reproduced deliberately:
//
// First, execution atomicity. For Memory — which only ever adds edges — a
// synchronous round is Jacobi-style: every node reads the same snapshot and
// all additions apply together (additions commute). For the edge-removing
// variants (Pure, LSN), fully simultaneous replacement is known not to
// converge (crossing chords regenerate each other forever; cf. Gall, Jacob,
// Richa, Scheideler, "A Note on the Parallel Runtime of Self-Stabilizing
// Graph Linearization"). Onus et al.'s model assumes atomic operations, so
// Pure and LSN apply node operations atomically — in identifier order
// within a synchronous round (Gauss-Seidel), in random order under the
// sequential daemon. A round still activates every node exactly once, so
// round counts remain comparable across variants.
//
// Second, forgetting must be *delegation*, not deletion. All three variants
// share one step shape: add Algorithm 1's chain edges, then drop the edges
// to neighbors outside the variant's keep set (Pure keeps only the closest
// neighbor per side; LSN the closest per exponential interval per side;
// Memory everything). Because the chain has already connected every dropped
// neighbor w to its consecutive predecessor — a strictly closer node — each
// removal is a delegation: the edge migrates toward w's true position
// rather than vanishing. Deleting edges outright (e.g. "drop unless some
// endpoint retains it") admits wrong stable fixed points in which a node is
// pruned out of everyone's view and can never be re-introduced; this
// implementation hit exactly that on power-law graphs before adopting the
// delegation semantics.
//
// Every variant preserves connectedness of the virtual graph — the property
// that makes local consistency equal global consistency on the line (§3) —
// and the tests verify this invariant on every round.
//
// Ring closure (§4's clockwise/counter-clockwise discovery messages between
// the nodes with empty left/right neighbor sets) is modeled by the
// CloseRing option. Linearization works on the line, so the wrap edge is
// ring state kept *beside* the line (Engine.closed, decided between rounds)
// and never an entry of it: a link the input has between the two extremal
// nodes is a neighbor like any other, chained and delegated like one.
//
// The §2 step — sort N(v), chain the consecutive pairs, delegate what the
// variant does not keep — is array work over an ordered neighborhood, and
// the engine keeps its state that way: one ascending row of dense node
// indices per node (index order is identifier order). A graph.Graph is the
// engine's input and its output, built when somebody looks; no round reads
// or writes one.
//
// The message-level version of the protocol (§4's neighbor notification /
// acknowledgment / teardown exchange over source routes) lives in package
// ssr; this package is the transport-independent algorithmic core.
package linearize

import (
	"fmt"
	"slices"

	"repro/internal/graph"
	"repro/internal/ids"
	"repro/internal/perf"
	"repro/internal/sim"
	"repro/internal/trace"
)

// Variant selects the linearization algorithm.
type Variant int

const (
	// Pure is Algorithm 1: edges are replaced.
	Pure Variant = iota
	// Memory adds chain edges and never removes any.
	Memory
	// LSN adds chain edges and prunes to one neighbor per exponential
	// interval per direction (keeping the closest neighbor on each side).
	LSN
)

// String names the variant.
func (v Variant) String() string {
	switch v {
	case Pure:
		return "pure"
	case Memory:
		return "memory"
	case LSN:
		return "lsn"
	default:
		return "unknown"
	}
}

// Variants lists all algorithm variants, for sweeps.
func Variants() []Variant { return []Variant{Pure, Memory, LSN} }

// Config parameterizes a run.
type Config struct {
	Variant   Variant
	Scheduler sim.Scheduler
	// MaxRounds bounds the run (<=0: max(16·n, 1024) rounds).
	MaxRounds int
	// Seed drives the random-sequential daemon's activation order.
	Seed int64
	// CloseRing also establishes the wrap edge between the smallest and
	// largest node at the end of the round that puts the line in place (§4's
	// discovery step, abstracted). The wrap edge is no line neighbor: no
	// step reads or drops it.
	CloseRing bool
	// Executor configures the round executor (see parallel.go and
	// sim.ExecutorConfig): pool width (<= 0: GOMAXPROCS), partition size
	// (<= 0: sim.DefaultShards(n)) and partition policy. The final graph,
	// stats and trace stream are a function of (Shards, Partition,
	// Scheduler, Seed) and never of Workers. Shards is part of the
	// schedule for Pure and LSN, which activate shard-interior nodes before
	// cross-shard ones, so different partitions may take different (equally
	// valid) trajectories — one shard is the plain Gauss-Seidel pass;
	// Memory is Jacobi-style and takes the same trajectory under every
	// partition. The RandomSequential daemon is inherently serial: it
	// always runs as one shard. An unknown Partition name panics in Run —
	// validate user input with sim.NewPartitioner first.
	Executor sim.ExecutorConfig
	// OnRound, if set, is called after every round with the round number
	// and the current virtual graph, which the engine builds from its dense
	// state for this call (a run without it builds none). It is the one
	// per-round hook: Figure 3's traces, the layered benchmark's round spans
	// and the convergence probe (OnRound: probe.Observe, whose EvProbe
	// events a teed trace.Analysis folds) all hang off it. The graph is
	// valid for the call and must not be retained: copy what has to outlive
	// it.
	OnRound func(round int, g *graph.Graph)
	// Tracer, if set, receives structured events: RoundStart/RoundEnd,
	// per-activation NodeActivate (with the keep-set size), per-change
	// EdgeAdd/EdgeDelegate, and RingClosed. Nil disables tracing at zero
	// cost; event timestamps are round indices.
	Tracer trace.Tracer
	// Prof, if set, instruments the executor with the deterministic-safe
	// performance profiler: per-phase and per-shard wall time,
	// snapshot-rebuild cost, load imbalance and allocation deltas, emitted
	// as EvSpan events on a side channel (see package perf). Purely
	// observational — the result is identical with or without it.
	Prof *perf.Profiler
}

// Stats aggregates what a run did — the raw material for experiments E5,
// E6 and E8.
type Stats struct {
	Variant      Variant
	Scheduler    sim.Scheduler
	Rounds       int
	Converged    bool
	EdgesAdded   int64 // edge insertions ≈ neighbor notifications needed
	EdgesDropped int64 // edge removals ≈ teardowns needed
	PeakDegree   int   // maximum node degree ever observed (state bound)
	FinalEdges   int   // edges at the fixed point
	// Par describes the executor's run shape.
	Par ParallelStats
}

// String renders a one-line summary.
func (s Stats) String() string {
	return fmt.Sprintf("%s/%s: rounds=%d converged=%v +%d -%d peakdeg=%d final=%d",
		s.Variant, s.Scheduler, s.Rounds, s.Converged,
		s.EdgesAdded, s.EdgesDropped, s.PeakDegree, s.FinalEdges)
}

// Engine runs a linearization variant over a virtual graph until the goal
// state. Create with NewEngine, drive with Run.
//
// The engine's state is dense: node i is the i-th smallest identifier, so
// index order is identifier order, and a graph.Graph is what goes in
// (NewEngine) and what comes out (Graph) — nothing in a round translates an
// identifier or probes a map. Pure, LSN and the sequential daemon step on
// rows; Memory's synchronous round freezes them into csr (parallel.go).
type Engine struct {
	cfg   Config
	nodes []ids.ID   // ascending; fixed for the run
	rows  [][]int32  // node i's neighbours, strictly ascending; nil once frozen into csr
	csr   *graph.CSR // Memory's synchronous round: the image Prepare reads and Finish grows in place
	ring  bool       // CloseRing on a universe that has a ring (three nodes or more)
	// closed is the wrap edge: ring state beside the rows, which hold line
	// edges only. closeRing sets it between rounds; Graph adds the edge.
	closed bool
	// startEdges is the input's edge count. Every later edge is counted in
	// stats when it comes or goes, so the live count needs no walk.
	startEdges int
	stats      Stats
	curRound   int // current round index, for event timestamps
}

// NewEngine initializes a run on the given virtual graph. Per §4 the
// virtual edge set is initialized from the physical one (E_v := E_p): pass
// the physical graph (it is read, not kept).
func NewEngine(virtual *graph.Graph, cfg Config) *Engine {
	e := &Engine{cfg: cfg, startEdges: virtual.NumEdges()}
	e.nodes, e.rows = graph.DenseRows(virtual)
	e.ring = cfg.CloseRing && len(e.nodes) >= 3
	e.stats.Variant = cfg.Variant
	e.stats.Scheduler = cfg.Scheduler
	e.stats.PeakDegree = virtual.MaxDegree()
	return e
}

// Graph builds the current virtual graph from the dense state — the rows,
// plus the wrap edge once the ring is closed; the caller owns the result.
func (e *Engine) Graph() *graph.Graph {
	c := e.csr
	if c == nil {
		c = graph.FreezeRows(e.nodes, e.rows)
	}
	g := c.Graph()
	if e.closed {
		g.AddEdge(e.nodes[0], e.nodes[len(e.nodes)-1])
	}
	return g
}

// Stats returns the accumulated run statistics.
func (e *Engine) Stats() Stats {
	s := e.stats
	s.FinalEdges = e.numEdges()
	return s
}

// numEdges is the live edge count between activations (a shard's sink holds
// its share of the counts back until it is flushed). A closed ring whose
// extremal nodes are also line neighbours — a link of the input that Memory
// or LSN kept — has that pair once, not twice.
func (e *Engine) numEdges() int {
	m := e.startEdges + int(e.stats.EdgesAdded-e.stats.EdgesDropped)
	if e.closed { // so the line is in place and row 0 is not empty
		if r := e.row(0); r[len(r)-1] == int32(len(e.nodes)-1) {
			m--
		}
	}
	return m
}

// row returns node i's neighbours in whichever form holds them.
func (e *Engine) row(i int) []int32 {
	if e.csr != nil {
		return e.csr.Row(i)
	}
	return e.rows[i]
}

// supersetOfLine reports whether every node is adjacent to its successor.
func (e *Engine) supersetOfLine() bool {
	if e.csr != nil {
		return e.csr.SupersetOfLine()
	}
	for i := 0; i+1 < len(e.rows); i++ {
		if _, ok := graph.SearchRow(e.rows[i], int32(i+1)); !ok {
			return false
		}
	}
	return true
}

// Done reports whether the goal state is reached: the sorted line (Pure) or
// a superset of it (Memory, LSN — their fixed points retain extra shortcut
// edges by design), closed into the ring when CloseRing is set.
func (e *Engine) Done() bool {
	n := len(e.nodes)
	lineEdges := max(n-1, 0)
	if e.ring {
		if !e.closed {
			return false
		}
		lineEdges = n
	}
	if e.cfg.Variant == Pure && e.numEdges() != lineEdges {
		return false
	}
	return e.supersetOfLine()
}

// opSink collects the side effects of node operations — stat deltas and
// trace events. Each shard and the boundary pass get a sink whose contents
// are merged in a fixed order during the sequential Finish phase, so the
// observable stream is deterministic regardless of worker scheduling.
type opSink struct {
	e       *Engine
	added   int64
	dropped int64
	peak    int
	events  []trace.Event

	// keep is the per-activation scratch, reused across activations. A sink
	// is only ever driven by one goroutine at a time (per-shard sinks by
	// their shard's worker, the root sink by the sequential phases), so it
	// needs no locking.
	keep []int32
}

func (s *opSink) addEdge() { s.added++ }

func (s *opSink) dropEdge() { s.dropped++ }

// observe folds the degree of a node that gained an edge into the
// peak-degree statistic — O(1) per touched endpoint instead of a full rescan.
func (s *opSink) observe(degree int) { s.peak = max(s.peak, degree) }

func (s *opSink) emit(ev trace.Event) {
	if s.e.cfg.Tracer != nil {
		s.events = append(s.events, ev)
	}
}

// traceEdge emits an edge event between the nodes at indices u and v.
func (s *opSink) traceEdge(t trace.EventType, u, v int32) {
	if e := s.e; e.cfg.Tracer != nil {
		s.emit(trace.Event{T: int64(e.curRound), Type: t, Node: e.nodes[u], Peer: e.nodes[v]})
	}
}

// flush merges the sink into the engine's stats and tracer. Only
// called from sequential contexts (the Finish phase).
func (s *opSink) flush() {
	e := s.e
	e.stats.EdgesAdded += s.added
	e.stats.EdgesDropped += s.dropped
	e.stats.PeakDegree = max(e.stats.PeakDegree, s.peak)
	for _, ev := range s.events {
		e.cfg.Tracer.Emit(ev)
	}
	s.added, s.dropped, s.peak = 0, 0, 0
	s.events = s.events[:0]
}

// stepInPlace atomically applies the operation of the node at index v to
// the live rows: add Algorithm 1's chain edges, then delegate away the
// neighbors outside v's keep set (the chain has just connected each of them
// to a strictly closer node, so no removal loses information). It reports
// whether any edge changed. All side effects flow through sink; when run
// from a shard worker, every touched row belongs to a node inside the
// shard's index interval (the interior contract of the parallel executor),
// so each row has a single writer even though shards run concurrently.
func (e *Engine) stepInPlace(v int32, sink *opSink) bool {
	// nbrs is v's own row, which nothing writes before the walks below are
	// over: a chain pair never names v, and a delegation edits the other
	// endpoint's row. The keep set lives in the sink's scratch, so the
	// steady-state hot path allocates nothing.
	nbrs := e.rows[v]
	changed := false
	// With u_1 < … < u_k < v < u_{k+1} < … < u_n the chain is {u_1,u_2}, …,
	// {u_k,v}, {v,u_{k+1}}, …, {u_{n-1},u_n}: the consecutive pairs of the
	// row, except that the pair straddling v stands for two of v's own
	// edges, which are there already.
	for k := 1; k < len(nbrs); k++ {
		if a, b := nbrs[k-1], nbrs[k]; (v < a || b < v) && e.link(a, b) {
			sink.addEdge()
			changed = true
			sink.observe(max(len(e.rows[a]), len(e.rows[b])))
			sink.traceEdge(trace.EvEdgeAdd, a, b)
		}
	}
	if e.cfg.Variant != Memory {
		keep := e.keepLine(v, nbrs, sink.keep[:0])
		sink.keep = keep
		if e.cfg.Tracer != nil {
			sink.emit(trace.Event{
				T: int64(e.curRound), Type: trace.EvNodeActivate,
				Node: e.nodes[v], Aux: e.cfg.Variant.String(), Value: float64(len(keep)),
			})
		}
		if len(keep) < len(nbrs) {
			changed = true
			ki := 0
			for _, w := range nbrs {
				if ki < len(keep) && keep[ki] == w {
					ki++
					continue
				}
				i, _ := graph.SearchRow(e.rows[w], v)
				e.rows[w] = slices.Delete(e.rows[w], i, i+1)
				sink.dropEdge()
				sink.traceEdge(trace.EvEdgeDelegate, v, w)
			}
			e.rows[v] = append(nbrs[:0], keep...) // v's own row is written once
		}
	}
	return changed
}

// link inserts the edge between the nodes at indices a and b and reports
// whether it was absent. Membership is decided on the shorter row: a hub is
// everyone's neighbour, and its own row is the longest there is.
func (e *Engine) link(a, b int32) bool {
	if len(e.rows[a]) > len(e.rows[b]) {
		a, b = b, a
	}
	i, found := graph.SearchRow(e.rows[a], b)
	if found {
		return false
	}
	j, _ := graph.SearchRow(e.rows[b], a)
	e.rows[a] = slices.Insert(e.rows[a], i, b)
	e.rows[b] = slices.Insert(e.rows[b], j, a)
	return true
}

// keepLine appends to dst (reusing its capacity), in ascending order, the
// members of nbrs — v's row — that v retains under the configured variant:
// Pure keeps the closest neighbor per side (Algorithm 1); LSN the closest
// neighbor in each occupied ids.Slot, O(log |space|) of them. A slot's
// members are one run of the row, monotone in distance, so its closest is
// the last of the run on the left of v and the first on the right.
func (e *Engine) keepLine(v int32, nbrs, dst []int32) []int32 {
	split, _ := graph.SearchRow(nbrs, v) // nbrs[:split] lie left of v
	if e.cfg.Variant == Pure {
		return append(dst, nbrs[max(split-1, 0):min(split+1, len(nbrs))]...)
	}
	prev := -1 // the slot of nbrs[k-1]
	for k, u := range nbrs {
		slot := ids.Slot(e.nodes[v], e.nodes[u])
		switch {
		case k < split:
			if k > 0 && slot != prev {
				dst = append(dst, nbrs[k-1])
			}
			if k == split-1 {
				dst = append(dst, u)
			}
		case slot != prev:
			dst = append(dst, u)
		}
		prev = slot
	}
	return dst
}

// closeRing abstracts §4's discovery messages: once the line is in place the
// two nodes with an empty side find each other. It runs between rounds —
// before the first and in the sequential tail of each — and writes no row.
func (e *Engine) closeRing() {
	if !e.ring || e.closed || !e.supersetOfLine() {
		return
	}
	e.closed = true
	e.stats.EdgesAdded++
	if e.cfg.Tracer != nil {
		last := len(e.nodes) - 1
		e.cfg.Tracer.Emit(trace.Event{
			T: int64(e.curRound), Type: trace.EvRingClosed, Node: e.nodes[0], Peer: e.nodes[last],
		})
	}
}

// Run is the one-shot convenience entry point: linearize the virtual graph
// (initialized from the given physical graph per §4) and return the stats
// and the final virtual graph.
func Run(physical *graph.Graph, cfg Config) (Stats, *graph.Graph) {
	e := NewEngine(physical, cfg)
	stats := e.Run()
	return stats, e.Graph()
}
