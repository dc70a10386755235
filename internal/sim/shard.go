package sim

// This file is the round executor — the only round loop in the repository.
// ShardedRunner partitions the node universe into contiguous
// identifier-interval shards and drives each round as up to three phases
// over a worker pool:
//
//	Prepare  — parallel, read-only against the round-start snapshot.
//	           Jacobi-style protocols compute their proposals here; atomic
//	           protocols classify nodes as shard-interior or boundary.
//	Execute  — parallel, writes confined to the shard's identifier range.
//	           Atomic protocols run their interior independent sets here.
//	Finish   — sequential. Jacobi protocols apply the deterministic ordered
//	           merge; atomic protocols run the boundary fallback in global
//	           identifier order.
//
// The runner owns partitioning, the pool, the phase barriers and the round
// loop; the protocol owns the semantics. The determinism contract is split
// accordingly: the runner guarantees that each shard's hooks run on exactly
// one goroutine and that Finish is exclusive, while the protocol must make
// cross-shard Prepare/Execute work commute (for linearization this follows
// from the identifier-interval footprint argument — see DESIGN.md §9). Under
// that contract the outcome is a pure function of the shard partition and
// is identical for every Workers value. A strictly sequential protocol (the
// random-sequential daemon) is the one-shard case: its Execute hook owns the
// whole node universe on one goroutine.

import (
	"runtime"
	"sync"
	"sync/atomic"
	"time"
)

// ShardProfiler observes the phase structure of a sharded run. The runner
// calls every method from its sequential control goroutine: per-shard
// durations are recorded race-free during the parallel phases (one writer
// per shard slot) and reported via ShardTime in ascending shard order
// after the phase barrier, so even the observation order is deterministic.
// Implementations must only observe — feeding a measurement back into
// protocol state breaks the executor's determinism contract.
type ShardProfiler interface {
	// RoundStart opens a round, before BeginRound.
	RoundStart(round int)
	// PhaseTime reports one phase's wall time. Phases are "begin",
	// "prepare", "execute" (the parallel pair), "waves" (when the runner
	// has a Waves hook), "finish" and "end"; absent hooks report nothing.
	PhaseTime(round int, phase string, d time.Duration)
	// ShardTime reports one shard's busy time inside a parallel phase.
	ShardTime(round int, phase string, shard int, d time.Duration)
	// RoundEnd closes a round, after EndRound.
	RoundEnd(round int)
}

// Shard is one contiguous slice of the dense node-index space [Lo, Hi).
// Because protocols expose nodes in ascending identifier order, a shard is
// also a contiguous identifier interval.
type Shard struct {
	Index  int
	Lo, Hi int
}

// Len returns the number of nodes in the shard.
func (s Shard) Len() int { return s.Hi - s.Lo }

// ParallelFor runs fn for every index in [0, tasks) over the runner's
// worker pool. fn invocations may run concurrently; the caller is
// responsible for making them race-free (e.g. conflict-free wave picks).
type ParallelFor func(tasks int, fn func(i int))

// makeParallelFor builds a ParallelFor over a work-stealing pool of the
// given width, clamped per call to the task count. Both the per-shard
// phases and the Waves hook fan out through it.
func makeParallelFor(workers int) ParallelFor {
	return func(tasks int, fn func(i int)) {
		if tasks <= 0 {
			return
		}
		w := workers
		if w > tasks {
			w = tasks
		}
		if w <= 1 {
			for i := 0; i < tasks; i++ {
				fn(i)
			}
			return
		}
		var next atomic.Int64
		var wg sync.WaitGroup
		for k := 0; k < w; k++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for {
					i := int(next.Add(1)) - 1
					if i >= tasks {
						return
					}
					fn(i)
				}
			}()
		}
		wg.Wait()
	}
}

// ShardedRunner drives a round-model protocol over an identifier-interval
// shard partition with a worker pool. Nil phase hooks are skipped. See the
// file comment for the phase semantics and the determinism contract.
type ShardedRunner struct {
	// Workers is the pool width; <= 0 means the GOMAXPROCS default. The
	// final state is independent of Workers; only wall-clock changes.
	Workers int
	// Shards is the partition size; <= 0 means DefaultShards(NodeCount()).
	// Unlike Workers, the shard partition is part of the schedule and
	// therefore of the (deterministic) result.
	Shards    int
	MaxRounds int // safety bound; <= 0 means 1<<20

	// Partitioner is the shard-assignment policy (required; see
	// NewPartitioner). The partition is computed at round 0 and cached; it
	// is recomputed when the node count changes or the policy's Refresh
	// reports that the previous round's cross-shard activation share
	// warrants it.
	Partitioner Partitioner
	// Footprint supplies per-node footprints to the Partitioner, which
	// receives it as is: required by every policy that reads footprints
	// (all but contiguous). Only consulted when the partition is
	// (re)computed.
	Footprint FootprintFn
	// OnPartition, when non-nil, runs sequentially each time a new shard
	// layout is installed — the protocol's chance to resize per-shard
	// state before the round's phases.
	OnPartition func(shards []Shard)

	NodeCount func() int
	Done      func() bool
	// BeginRound runs sequentially before the phases (snapshot hook).
	BeginRound func(round int)
	// Prepare runs once per shard per round, in parallel; it must only read
	// protocol state. It returns the shard's activation count.
	Prepare func(round int, s Shard) int
	// Execute runs once per shard per round, in parallel; writes must stay
	// within the shard's identifier interval. Returns activations.
	Execute func(round int, s Shard) int
	// Waves, when non-nil, runs between Execute and Finish on the control
	// goroutine and may use pf to fan conflict-free work over the pool
	// (the BoundaryWaves discipline). Returns activations, counted as
	// parallel work. The hook must keep its pick schedule independent of
	// the pool width.
	Waves func(round int, pf ParallelFor) int
	// Finish runs sequentially after the parallel phases (ordered merge /
	// boundary fallback). Returns activations.
	Finish func(round int) int
	// EndRound runs sequentially after Finish (observability hook).
	EndRound func(round int)
	// Prof, when non-nil, receives phase and per-shard timings. Purely
	// observational: it never changes the schedule or the result.
	Prof ShardProfiler
}

// ShardResult summarizes a sharded run.
type ShardResult struct {
	Rounds      int
	Converged   bool
	Activations int // total state-changing activations
	// ParallelActivations counts the activations performed inside the
	// parallel phases; Activations minus this is the sequential share
	// (Jacobi merges and atomic boundary fallbacks).
	ParallelActivations int
	// WaveActivations is the subset of ParallelActivations performed by
	// the Waves hook (cross-shard work executed in conflict-free waves).
	WaveActivations int
	Workers, Shards int
}

// Run drives the protocol until Done or MaxRounds.
func (rr *ShardedRunner) Run() ShardResult {
	maxRounds := rr.MaxRounds
	if maxRounds <= 0 {
		maxRounds = 1 << 20
	}
	var res ShardResult
	if rr.Done() {
		res.Converged = true
		return res
	}
	counts := []int(nil)
	durs := []time.Duration(nil)
	prof := rr.Prof
	workers := rr.Workers
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	pool := makeParallelFor(workers)
	// timeSeq wraps one sequential hook with profiler timing; with no
	// profiler it costs one branch.
	timeSeq := func(round int, name string, fn func()) {
		if prof == nil {
			fn()
			return
		}
		t0 := time.Now()
		fn()
		prof.PhaseTime(round, name, time.Since(t0))
	}
	// The shard layout is cached across rounds; recomputing it is policy-
	// driven (Partitioner.Refresh on the previous round's cross-shard
	// activation share), not a per-round cost. crossShare is derived from
	// the runner's own deterministic counters, so refresh decisions — and
	// with them the schedule — stay identical for every worker count.
	var (
		shards     []Shard
		prevN      = -1
		crossShare float64
	)
	for round := 0; round < maxRounds; round++ {
		n := rr.NodeCount()
		shardCount := rr.Shards
		if shardCount <= 0 {
			shardCount = DefaultShards(n)
		}
		if shards == nil || n != prevN || rr.Partitioner.Refresh(round, crossShare) {
			shards = rr.Partitioner.Assign(n, shardCount, rr.Footprint)
			validatePartition(n, shards, rr.Partitioner.Name())
			prevN = n
			if rr.OnPartition != nil {
				rr.OnPartition(shards)
			}
		}
		// A phase has one task per shard, so no more workers than shards
		// ever run; the reported width says so.
		res.Workers, res.Shards = min(workers, len(shards)), len(shards)
		if cap(counts) < len(shards) {
			counts = make([]int, len(shards))
		}
		counts = counts[:len(shards)]
		if prof != nil {
			if cap(durs) < len(shards) {
				durs = make([]time.Duration, len(shards))
			}
			durs = durs[:len(shards)]
			prof.RoundStart(round)
		}

		if rr.BeginRound != nil {
			timeSeq(round, "begin", func() { rr.BeginRound(round) })
		}
		roundPar, roundWave, roundSeq := 0, 0, 0
		for _, ph := range []struct {
			name string
			fn   func(int, Shard) int
		}{{"prepare", rr.Prepare}, {"execute", rr.Execute}} {
			if ph.fn == nil {
				continue
			}
			fn := ph.fn
			var t0 time.Time
			if prof != nil {
				t0 = time.Now()
			}
			// One writer per counts/durs slot keeps the fan-out race-free
			// and the aggregate independent of scheduling.
			pool(len(shards), func(k int) {
				if prof == nil {
					counts[k] = fn(round, shards[k])
					return
				}
				s0 := time.Now()
				counts[k] = fn(round, shards[k])
				durs[k] = time.Since(s0)
			})
			if prof != nil {
				prof.PhaseTime(round, ph.name, time.Since(t0))
				for _, s := range shards {
					prof.ShardTime(round, ph.name, s.Index, durs[s.Index])
				}
			}
			for _, c := range counts {
				roundPar += c
			}
		}
		if rr.Waves != nil {
			timeSeq(round, "waves", func() { roundWave = rr.Waves(round, pool) })
		}
		if rr.Finish != nil {
			timeSeq(round, "finish", func() { roundSeq = rr.Finish(round) })
		}
		res.Activations += roundPar + roundWave + roundSeq
		res.ParallelActivations += roundPar + roundWave
		res.WaveActivations += roundWave
		if total := roundPar + roundWave + roundSeq; total > 0 {
			crossShare = float64(roundWave+roundSeq) / float64(total)
		} else {
			crossShare = 0
		}
		if rr.EndRound != nil {
			timeSeq(round, "end", func() { rr.EndRound(round) })
		}
		if prof != nil {
			prof.RoundEnd(round)
		}
		res.Rounds = round + 1
		if rr.Done() {
			res.Converged = true
			return res
		}
	}
	return res
}
