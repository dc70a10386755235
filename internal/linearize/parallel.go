package linearize

// This file is the round executor; every run takes its one round loop,
// Engine.Run. The node universe is partitioned into contiguous
// identifier-interval shards, and each round runs as up to five phases:
// begin (sequential), Prepare and Execute (parallel, one task per shard on
// a small work-claiming pool), Finish and end (sequential). Each variant
// maps onto the phases according to its atomicity needs (see DESIGN.md §9
// for the full argument):
//
//   - Memory is Jacobi-style: additions commute, so the whole round runs on
//     one image of the round-start rows (graph.CSR). Prepare stages, in
//     parallel, the chain pairs the image lacks (after the first round only
//     the pairs the last merge created can be new); Finish hands them in
//     global identifier order to CSR.MergeInPlace, which resolves
//     duplicates to the first proposer and grows the image into the next
//     round's, in its own array while it fits. Proposal order and presence
//     filter make the graph, stats and trace stream the same for every
//     shard count (the reference model in parallel_test.go).
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
//   - The RandomSequential daemon is the atomic path on one shard, under
//     every variant: every node is interior, and Prepare permutes them
//     with one rng.Shuffle per round before Execute walks them.
//
// Shard assignment itself is a policy (sim.Partitioner, Config.Executor
// .Partition): the loop recomputes the layout when the policy asks,
// feeding it per-node footprints and the previous round's cross-shard
// activation share — all deterministic inputs, so the schedule stays a
// pure function of the configuration.
//
// The result is a pure function of the shard schedule: the worker count
// only changes wall-clock time, never the outcome. Each shard's hooks run
// on one goroutine; its side effects are buffered in its opSink and merged
// in shard order, so even the trace stream is identical for every pool
// width. The profiler is told the per-shard times after each parallel
// phase, in shard order, so even the span order is.
//
// Ring closure is no node's operation: Engine.closeRing reads every node's
// successor edge and sets a flag, once before the first round and at the end
// of every round's sequential Finish.

import (
	"fmt"
	"math/rand"
	"runtime"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

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
	shards  []sim.Shard // the current layout
	jacobi  bool        // Memory under the synchronous scheduler (snapshot-merge rounds)
	workers int         // pool width (also the merge's fan-out)

	root      opSink          // sink of the boundary pass (atomic Finish)
	sinks     []opSink        // per-shard sinks (atomic Execute)
	intCounts []int           // per-shard activations in the parallel phases this round
	bndCounts []int           // per-shard sequential activations this round
	durs      []time.Duration // per-shard busy time of a profiled parallel phase

	// Jacobi state (Memory; the image itself is Engine.csr). A proposal is
	// a chain pair of dense indices absent from the image.
	props  [][]graph.Pair // staged per shard in Prepare; in shard order, what a single-threaded pass would write
	merger graph.Merger   // its Added rows are what the next Prepare re-checks

	// atomic state (Pure, LSN, and the daemon): dense indices per shard,
	// split by atomicPrepare into the nodes Execute runs and the
	// cross-shard nodes Finish runs
	interior [][]int
	boundary [][]int
	rng      *rand.Rand // the daemon's seeded source; nil under Synchronous
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
		workers:   workers,
		root:      opSink{e: e},
		sinks:     make([]opSink, shardCount),
		intCounts: make([]int, shardCount),
		bndCounts: make([]int, shardCount),
		durs:      make([]time.Duration, shardCount),
	}
	for i := range p.sinks {
		p.sinks[i].e = e
	}
	begin, prepare, execute, finish := p.beginRound, p.atomicPrepare, p.atomicExecute, p.atomicFinish
	if e.cfg.Variant == Memory && !daemon {
		p.jacobi = true
		p.props = make([][]graph.Pair, shardCount)
		begin, prepare, execute, finish = p.jacobiBegin, p.jacobiPrepare, nil, p.jacobiFinish
	} else {
		p.interior = make([][]int, shardCount)
		p.boundary = make([][]int, shardCount)
		if daemon {
			p.rng = rand.New(rand.NewSource(e.cfg.Seed))
		}
	}
	e.stats.Par.Policy = part.Name()
	e.closeRing() // an input whose line is in place needs no round
	e.stats.Converged = e.Done()
	// crossShare, the previous round's sequential share of the activations,
	// is what the policy's Refresh reads. It comes from the deterministic
	// counters, so refresh decisions stay the same for every worker count.
	crossShare := 0.0
	for round := 0; round < maxRounds && !e.stats.Converged; round++ {
		if p.shards == nil || part.Refresh(round, crossShare) {
			p.shards = sim.Layout(part, n, shardCount, p.footprint)
		}
		// A phase has one task per shard, so no more workers than shards
		// ever run; the reported width says so.
		e.stats.Par.Workers, e.stats.Par.Shards = min(workers, len(p.shards)), len(p.shards)
		e.cfg.Prof.RoundStart(round)
		p.seq(round, "begin", begin)
		p.parallel(round, "prepare", prepare)
		if execute != nil {
			p.parallel(round, "execute", execute)
		}
		p.seq(round, "finish", finish)
		par, seq := 0, 0
		for k := range p.shards {
			par, seq = par+p.intCounts[k], seq+p.bndCounts[k]
		}
		e.stats.Par.InteriorActivations += int64(par)
		e.stats.Par.BoundaryActivations += int64(seq)
		crossShare = 0
		if par+seq > 0 {
			crossShare = float64(seq) / float64(par+seq)
		}
		p.seq(round, "end", p.endRound)
		e.cfg.Prof.RoundEnd(round)
		e.stats.Rounds = round + 1
		e.stats.Converged = e.Done()
	}
	return e.Stats()
}

// seq runs one sequential phase, timed when the run is profiled.
func (p *parExec) seq(round int, phase string, fn func(round int)) {
	prof := p.e.cfg.Prof
	if prof == nil {
		fn(round)
		return
	}
	t0 := time.Now()
	fn(round)
	prof.PhaseTime(round, phase, time.Since(t0))
}

// parallel runs fn once per shard: inline on one worker, else on up to
// p.workers goroutines, each claiming the next unclaimed shard until none
// is left. Each shard's durs slot has one writer, and the profiler hears
// the shard times after the barrier, in shard order.
func (p *parExec) parallel(round int, phase string, fn func(s sim.Shard)) {
	prof := p.e.cfg.Prof
	t0 := prof.Start()
	run := func(k int) {
		if prof == nil {
			fn(p.shards[k])
			return
		}
		s0 := time.Now()
		fn(p.shards[k])
		p.durs[k] = time.Since(s0)
	}
	if w := min(p.workers, len(p.shards)); w <= 1 {
		for k := range p.shards {
			run(k)
		}
	} else {
		var next atomic.Int64
		var wg sync.WaitGroup
		wg.Add(w)
		for range w {
			go func() {
				defer wg.Done()
				for k := int(next.Add(1)) - 1; k < len(p.shards); k = int(next.Add(1)) - 1 {
					run(k)
				}
			}()
		}
		wg.Wait()
	}
	if prof != nil {
		prof.PhaseTime(round, phase, time.Since(t0))
		for k := range p.shards {
			prof.ShardTime(round, phase, k, p.durs[k])
		}
	}
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
	if e.cfg.OnRound != nil {
		e.cfg.OnRound(round, e.Graph())
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
			Kind: "policy", Aux: e.stats.Par.Policy, Value: float64(len(p.shards)),
		})
		e.cfg.Tracer.Emit(trace.Event{
			T: int64(round), Type: trace.EvRoundEnd,
			Aux: e.cfg.Variant.String(), Value: float64(e.numEdges()),
		})
	}
	for i := range p.intCounts {
		p.intCounts[i], p.bndCounts[i] = 0, 0
	}
}

// emitShardRound emits one EvShardRound per shard for one phase of the
// finished round.
func (p *parExec) emitShardRound(phase string, counts []int) {
	e := p.e
	for _, s := range p.shards {
		e.cfg.Tracer.Emit(trace.Event{
			T: int64(e.curRound), Type: trace.EvShardRound,
			Kind: strconv.Itoa(s.Index), Aux: phase, Value: float64(counts[s.Index]),
		})
	}
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
func (p *parExec) jacobiPrepare(s sim.Shard) {
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
}

// jacobiFinish resolves the round: all shards' proposals, read in shard
// order and so in global identifier order, go through one
// CSR.MergeInPlace, whose winner of every run of equal pairs is the
// proposal Graph.AddEdge would have accepted in a single-threaded pass — so
// the EdgesAdded count and the EvEdgeAdd stream are the same for every
// shard count. The merge rewrites the image Prepare read, which is safe
// after the barrier. Degrees only grow, so the largest merged row is the
// peak. The ring closes on the merged image. Proposers were counted in
// Prepare.
func (p *parExec) jacobiFinish(round int) {
	e := p.e
	t0 := e.cfg.Prof.Start()
	before := e.csr.NumEdges()
	e.csr.MergeInPlace(&p.merger, p.props, p.workers)
	e.cfg.Prof.End(round, "snapshot/delta", e.cfg.Variant.String(), t0)
	e.stats.EdgesAdded += int64(e.csr.NumEdges() - before)
	e.stats.PeakDegree = max(e.stats.PeakDegree, e.csr.MaxDegree())
	if e.cfg.Tracer != nil {
		seq := 0
		for _, props := range p.props {
			for _, pr := range props {
				if p.merger.Won[seq] {
					e.cfg.Tracer.Emit(trace.Event{T: int64(round), Type: trace.EvEdgeAdd, Node: e.nodes[pr.A], Peer: e.nodes[pr.B]})
				}
				seq++
			}
		}
	}
	e.closeRing()
}

// atomicPrepare classifies the shard's nodes by footprint: a node whose row
// starts and ends inside the shard is interior and runs concurrently in
// Execute; the rest run in the sequential Finish pass. Read-only;
// activations are counted by the later phases. The daemon's one shard
// covers every row, so all its nodes are interior, in identity order, and
// one rng.Shuffle permutes them: a seed fixes the activation sequence of
// the whole run.
func (p *parExec) atomicPrepare(s sim.Shard) {
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
	if p.rng != nil {
		p.rng.Shuffle(len(inner), func(i, j int) { inner[i], inner[j] = inner[j], inner[i] })
	}
	p.interior[s.Index] = inner
	p.boundary[s.Index] = outer
}

// atomicExecute runs the shard's interior nodes in Prepare's order. Every
// touched edge has both endpoints inside the shard's index interval, so
// concurrent shards never write the same rows; side effects go into the
// shard's buffering sink.
func (p *parExec) atomicExecute(s sim.Shard) {
	e := p.e
	sink := &p.sinks[s.Index]
	changed := 0
	for _, i := range p.interior[s.Index] {
		if e.stepInPlace(int32(i), sink) {
			changed++
		}
	}
	p.intCounts[s.Index] = changed
}

// atomicFinish merges the shard sinks in shard order (deterministic stats
// and trace stream for any worker count), then runs the boundary nodes
// sequentially in global identifier order and merges their sink. Then the
// ring may close.
func (p *parExec) atomicFinish(int) {
	e := p.e
	for i := range p.sinks {
		p.sinks[i].flush()
	}
	for si := range p.boundary {
		changed := 0
		for _, i := range p.boundary[si] {
			if e.stepInPlace(int32(i), &p.root) {
				changed++
			}
		}
		p.bndCounts[si] = changed
	}
	p.root.flush()
	e.closeRing()
}
