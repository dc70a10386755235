package linearize

// This file is the round executor, built on sim.ShardedRunner: every run
// takes this path. The node universe is partitioned into contiguous
// identifier-interval shards and each variant maps onto the runner's phases
// according to its atomicity needs (see DESIGN.md §9 for the full
// argument):
//
//   - Memory is Jacobi-style: additions commute, so the whole round runs on
//     an immutable image of the round-start rows (graph.CSR). Prepare
//     stages, in parallel, the chain pairs the image lacks (after the first
//     round only the pairs the last merge created can be new); Finish hands
//     them in global identifier order to CSR.Merge, which resolves
//     duplicates to the first proposer and builds the next image. Proposal
//     order and presence filter make the graph, stats and trace stream the
//     same for every shard count (the reference model in parallel_test.go).
//
//   - Pure and LSN need atomic node operations (fully simultaneous
//     replacement does not converge). Prepare classifies each node by its
//     footprint — the first and last entry of its row, and itself — as
//     shard-interior (footprint inside the shard's index interval) or
//     cross-shard. Execute runs the interior nodes of each shard in
//     identifier order, concurrently across shards: an interior operation
//     only touches rows of its own shard, and interior operations can only
//     add shard-local neighbors, so the classification stays valid for the
//     whole phase and every row of Engine.rows has a single writer. The
//     cross-shard nodes run sequentially in global identifier order during
//     Finish, under every policy. With Shards=1 every node is interior and
//     the schedule is exactly the Gauss-Seidel pass in identifier order.
//
//   - The RandomSequential daemon is strictly serial, so it is the
//     one-shard case: Execute walks the whole universe in a fresh random
//     permutation per round (daemonExecute), under every variant.
//
// Shard assignment itself is a policy (sim.Partitioner, Config.Executor
// .Partition): the runner recomputes the layout when the policy asks,
// feeding it per-node footprints and the previous round's cross-shard
// activation share — all deterministic inputs, so the schedule stays a
// pure function of the configuration.
//
// In every mode the result is a pure function of the shard schedule: the
// worker count only changes wall-clock time, never the outcome. Per-shard
// side effects are buffered in opSinks and merged in shard order, so even
// the trace stream is identical for every pool width.
//
// Ring closure is no node's operation: Engine.closeRing reads every node's
// successor edge and sets a flag, once before the first round and at the end
// of every round's sequential Finish.

import (
	"fmt"
	"math/rand"
	"runtime"
	"strconv"

	"repro/internal/graph"
	"repro/internal/sim"
	"repro/internal/trace"
)

// ParallelStats describes the executor's run shape.
type ParallelStats struct {
	Workers int    // worker pool width actually used
	Shards  int    // shard partition size actually used
	Policy  string // partition policy name
	// InteriorActivations counts state-changing activations performed in
	// the parallel phases (Jacobi proposals, atomic interior steps, the
	// daemon's one-shard pass); BoundaryActivations counts the sequential
	// share (the cross-shard nodes of Pure and LSN, run in Finish).
	InteriorActivations int64
	BoundaryActivations int64
	// WaveActivations is always 0: no executor path runs cross-shard nodes
	// in parallel. It stays only because the layered benchmark
	// (benchmark/lin.go) reads it.
	WaveActivations int64
}

// parExec holds the per-run state of the executor.
type parExec struct {
	e       *Engine
	shards  []sim.Shard // current layout, installed via onPartition
	policy  string
	jacobi  bool // Memory under the synchronous scheduler (snapshot-merge rounds)
	workers int  // pool width (the merge's fan-out)

	root      opSink   // sequential-phase sink (direct)
	sinks     []opSink // per-shard buffering sinks (atomic Execute)
	intCounts []int    // per-shard interior activations this round
	bndCounts []int    // per-shard sequential activations this round

	// Jacobi state (Memory; the image itself is Engine.csr). A proposal is
	// a chain pair of dense indices absent from the image.
	props  [][]graph.Pair // staged per shard in Prepare
	all    []graph.Pair   // props in shard order: what a single-threaded pass would write
	merger graph.Merger   // its Added rows are what the next Prepare re-checks

	// atomic state (Pure, LSN): dense indices per shard, split by
	// atomicPrepare into the nodes Execute runs and the cross-shard nodes
	// Finish runs
	interior [][]int
	boundary [][]int

	// daemon state (RandomSequential): the seeded source and the
	// activation order it permutes each round
	rng   *rand.Rand
	order []int
}

// Run drives the engine to the goal or the round bound and returns stats.
func (e *Engine) Run() Stats {
	ex := e.cfg.Executor
	n := len(e.nodes)
	maxRounds := e.cfg.MaxRounds
	if maxRounds <= 0 {
		maxRounds = max(16*n, 1024)
	}
	daemon := e.cfg.Scheduler == sim.RandomSequential
	part, err := sim.NewPartitioner(ex.Partition)
	if err != nil {
		panic(fmt.Sprintf("linearize: %v", err))
	}
	workers := ex.Workers
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	shardCount := ex.Shards
	if daemon {
		shardCount = 1
	} else if shardCount <= 0 {
		shardCount = sim.DefaultShards(n)
	}
	// Every policy emits exactly ClampShards shards, so the per-shard state
	// is sized once even though the layout may be recomputed mid-run.
	shardCount = sim.ClampShards(n, shardCount)
	p := &parExec{
		e:         e,
		policy:    part.Name(),
		workers:   workers,
		root:      opSink{e: e, direct: true},
		sinks:     make([]opSink, shardCount),
		intCounts: make([]int, shardCount),
		bndCounts: make([]int, shardCount),
	}
	for i := range p.sinks {
		p.sinks[i].e = e
	}
	rr := &sim.ShardedRunner{
		Workers:     workers,
		Shards:      shardCount,
		MaxRounds:   maxRounds,
		Partitioner: part,
		Footprint:   p.footprint,
		OnPartition: p.onPartition,
		NodeCount:   func() int { return n },
		Done:        e.Done,
		EndRound:    p.endRound,
	}
	if e.cfg.Prof != nil {
		// Guarded assignment: a nil *perf.Profiler must stay a nil
		// interface so the runner's prof != nil fast path holds.
		rr.Prof = e.cfg.Prof
	}
	switch {
	case daemon:
		p.rng = rand.New(rand.NewSource(e.cfg.Seed))
		rr.BeginRound = p.beginRound
		rr.Execute = p.daemonExecute
		rr.Finish = func(int) int { e.closeRing(); return 0 }
	case e.cfg.Variant == Memory:
		p.jacobi = true
		p.props = make([][]graph.Pair, shardCount)
		rr.BeginRound = p.jacobiBegin
		rr.Prepare = p.jacobiPrepare
		rr.Finish = p.jacobiFinish
	default:
		p.interior = make([][]int, shardCount)
		p.boundary = make([][]int, shardCount)
		rr.BeginRound = p.beginRound
		rr.Prepare = p.atomicPrepare
		rr.Execute = p.atomicExecute
		rr.Finish = p.atomicFinish
	}
	e.closeRing() // an input whose line is in place needs no round
	res := rr.Run()
	e.stats.Rounds = res.Rounds
	e.stats.Converged = res.Converged
	e.stats.Par = ParallelStats{
		Workers:             res.Workers,
		Shards:              res.Shards,
		Policy:              p.policy,
		InteriorActivations: int64(res.ParallelActivations),
		BoundaryActivations: int64(res.Activations - res.ParallelActivations),
	}
	return e.Stats()
}

// footprint describes the node at dense index i to the partition policy:
// the index span of its row and itself, and its degree as the work estimate.
func (p *parExec) footprint(i int) sim.Footprint {
	nbrs := p.e.row(i)
	f := sim.Footprint{Lo: i, Hi: i, Weight: float64(len(nbrs) + 1)}
	if k := len(nbrs); k > 0 {
		f.Lo, f.Hi = min(i, int(nbrs[0])), max(i, int(nbrs[k-1]))
	}
	return f
}

// onPartition installs a (re)computed shard layout.
func (p *parExec) onPartition(shards []sim.Shard) { p.shards = shards }

// beginRound stamps the round index and emits the round-start event.
func (p *parExec) beginRound(round int) {
	e := p.e
	e.curRound = round
	if e.cfg.Tracer != nil {
		e.cfg.Tracer.Emit(trace.Event{
			T: int64(round), Type: trace.EvRoundStart,
			Aux: e.cfg.Variant.String(), Value: float64(e.numEdges()),
		})
	}
}

// endRound emits the per-shard accounting, runs the OnRound hook and closes
// the round — the sequential observability tail of every mode. The round's
// graph is built only when a hook is there to look at it.
func (p *parExec) endRound(round int) {
	e := p.e
	var g *graph.Graph
	if e.cfg.OnRound != nil || e.cfg.Probe != nil {
		g = e.Graph()
	}
	if e.cfg.OnRound != nil {
		e.cfg.OnRound(round, g)
	}
	if e.cfg.Tracer != nil {
		if p.jacobi {
			p.emitShardRound("propose", p.intCounts)
		} else {
			p.emitShardRound("interior", p.intCounts)
			p.emitShardRound("boundary", p.bndCounts)
		}
		// One policy label per round: Kind "policy" (not a shard index)
		// with the policy name in Aux and the shard count as the value.
		e.cfg.Tracer.Emit(trace.Event{
			T: int64(round), Type: trace.EvShardRound,
			Kind: "policy", Aux: p.policy, Value: float64(len(p.shards)),
		})
		e.cfg.Tracer.Emit(trace.Event{
			T: int64(round), Type: trace.EvRoundEnd,
			Aux: e.cfg.Variant.String(), Value: float64(e.numEdges()),
		})
	}
	if e.cfg.Probe != nil {
		e.cfg.Probe.Observe(round, g)
	}
	for i := range p.intCounts {
		p.intCounts[i], p.bndCounts[i] = 0, 0
	}
}

// emitShardRound emits one EvShardRound per shard plus the aggregate gauge
// for one phase of the finished round.
func (p *parExec) emitShardRound(phase string, counts []int) {
	e := p.e
	total := 0
	for _, s := range p.shards {
		total += counts[s.Index]
		e.cfg.Tracer.Emit(trace.Event{
			T: int64(e.curRound), Type: trace.EvShardRound,
			Kind: strconv.Itoa(s.Index), Aux: phase, Value: float64(counts[s.Index]),
		})
	}
	e.cfg.Tracer.Emit(trace.Event{
		T: int64(e.curRound), Type: trace.EvGauge,
		Kind: "parallel/" + phase + "-activations", Value: float64(total),
	})
}

// jacobiBegin freezes the engine's rows into the image Prepare and the
// ordered merge read, once; after that the image is the previous round's
// merge output — Memory only adds edges, and all of them go through Merge.
func (p *parExec) jacobiBegin(round int) {
	p.beginRound(round)
	e := p.e
	if e.csr == nil {
		t0 := e.cfg.Prof.Start()
		e.csr, e.rows = graph.FreezeRows(e.nodes, e.rows), nil
		e.cfg.Prof.End(round, "snapshot/rebuild", e.cfg.Variant.String(), t0)
	}
}

// jacobiPrepare stages the shard's chain proposals against the frozen
// image: read-only, embarrassingly parallel. v's chain is the consecutive
// pairs of its row in stepInPlace's order, left of v then right of v;
// where a pair straddles v the chain has {a,v} and {v,b}, v's own row
// entries. Only pairs absent from the image are staged, and a node counts
// as activated iff it staged one.
//
// The pass is semi-naive: the first round checks every pair, later rounds
// only the pairs with a member the last merge added to the row. That is
// exact because rows only grow. A pair that was consecutive last round and
// still is was checked then, and was present, staged or straddling v, and
// every staged pair is in this image; a pair becomes consecutive only when
// one of its members is inserted. The added entries are walked in ascending
// position k, checking pairs (k−1, k) and (k, k+1) once each, so the staged
// pairs keep the full scan's order.
func (p *parExec) jacobiPrepare(_ int, s sim.Shard) int {
	c := p.e.csr
	buf := p.props[s.Index][:0]
	changed := 0
	for i := s.Lo; i < s.Hi; i++ {
		v := int32(i)
		row := c.Row(i)
		before := len(buf)
		below, above, merged := p.merger.Added(i)
		if !merged {
			below = row // the first round: every entry is new
		}
		k, next := 0, 1 // next: the right end of the first pair not yet checked
		for _, adds := range [2][]int32{below, above} {
			for _, x := range adds {
				for row[k] != x {
					k++
				}
				for r := max(k, next); r <= k+1 && r < len(row); r++ {
					if a, b := row[r-1], row[r]; (v < a || b < v) && !c.Has(a, b) {
						buf = append(buf, graph.Pair{A: a, B: b})
					}
				}
				next = k + 2
			}
		}
		if len(buf) > before {
			changed++
		}
	}
	p.props[s.Index] = buf
	p.intCounts[s.Index] = changed
	return changed
}

// jacobiFinish resolves the round: all shards' proposals, concatenated in
// global identifier order, go through one CSR.Merge, whose winner of every
// run of equal pairs is the proposal Graph.AddEdge would have accepted in a
// single-threaded pass — so the EdgesAdded count and the EvEdgeAdd stream
// are the same for every shard count. Degrees only grow, so the largest
// merged row is the peak. The ring closes on the merged image. Returns no
// activations: proposers were counted in Prepare.
func (p *parExec) jacobiFinish(round int) int {
	e := p.e
	all := p.all[:0]
	for _, props := range p.props {
		all = append(all, props...)
	}
	p.all = all
	t0 := e.cfg.Prof.Start()
	before := e.csr.NumEdges()
	e.csr = e.csr.Merge(&p.merger, all, p.workers)
	e.cfg.Prof.End(round, "snapshot/delta", e.cfg.Variant.String(), t0)
	e.stats.EdgesAdded += int64(e.csr.NumEdges() - before)
	e.stats.PeakDegree = max(e.stats.PeakDegree, e.csr.MaxDegree())
	if e.cfg.Tracer != nil {
		for seq, pr := range all {
			if p.merger.Won[seq] {
				e.cfg.Tracer.Emit(trace.Event{T: int64(round), Type: trace.EvEdgeAdd, Node: e.nodes[pr.A], Peer: e.nodes[pr.B]})
			}
		}
	}
	e.closeRing()
	return 0
}

// atomicPrepare classifies the shard's nodes by footprint: a node whose row
// starts and ends inside the shard is interior and runs concurrently in
// Execute; the rest run in the sequential Finish pass. Read-only;
// activations are counted by the later phases.
func (p *parExec) atomicPrepare(_ int, s sim.Shard) int {
	e := p.e
	inner := p.interior[s.Index][:0]
	outer := p.boundary[s.Index][:0]
	for i := s.Lo; i < s.Hi; i++ {
		if r := e.rows[i]; len(r) == 0 || (int(r[0]) >= s.Lo && int(r[len(r)-1]) < s.Hi) {
			inner = append(inner, i)
		} else {
			outer = append(outer, i)
		}
	}
	p.interior[s.Index] = inner
	p.boundary[s.Index] = outer
	return 0
}

// atomicExecute runs the shard's interior nodes in identifier order. Every
// touched edge has both endpoints inside the shard's index interval, so
// concurrent shards never write the same rows; side effects go into the
// shard's buffering sink.
func (p *parExec) atomicExecute(_ int, s sim.Shard) int {
	e := p.e
	sink := &p.sinks[s.Index]
	changed := 0
	for _, i := range p.interior[s.Index] {
		if e.stepInPlace(int32(i), sink) {
			changed++
		}
	}
	p.intCounts[s.Index] = changed
	return changed
}

// daemonExecute is the RandomSequential daemon's round: the one shard's
// nodes apply their operations atomically, one at a time, in a fresh
// random permutation — identity order, then one rng.Shuffle, so a seed
// fixes the activation sequence of the whole run. It runs on one goroutine
// and writes through the direct sink.
func (p *parExec) daemonExecute(_ int, s sim.Shard) int {
	e := p.e
	order := p.order[:0]
	for i := s.Lo; i < s.Hi; i++ {
		order = append(order, i)
	}
	p.rng.Shuffle(len(order), func(i, j int) { order[i], order[j] = order[j], order[i] })
	p.order = order
	changed := 0
	for _, i := range order {
		if e.stepInPlace(int32(i), &p.root) {
			changed++
		}
	}
	p.intCounts[s.Index] = changed
	return changed
}

// atomicFinish merges the shard sinks in shard order (deterministic stats
// and trace stream for any worker count), then runs the boundary nodes
// sequentially in global identifier order. Then the ring may close.
func (p *parExec) atomicFinish(_ int) int {
	e := p.e
	for i := range p.sinks {
		p.sinks[i].flush()
	}
	act := 0
	for si := range p.boundary {
		changed := 0
		for _, i := range p.boundary[si] {
			if e.stepInPlace(int32(i), &p.root) {
				changed++
			}
		}
		p.bndCounts[si] = changed
		act += changed
	}
	e.closeRing()
	return act
}
