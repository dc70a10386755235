package sim

// This file is the partition-policy seam of the sharded executor. PR 6
// measured why the executor was stuck at ~1x: with hard-coded contiguous
// interval shards, LSN's shortcut edges span intervals and push almost
// every activation onto the sequential boundary path (153,741 boundary vs
// 5,159 interior at n=10k). Shard assignment is therefore a first-class
// policy now: a Partitioner turns per-node footprints into a shard layout,
// and declares how the executor must treat the nodes whose footprints
// still cross shards.
//
// Determinism contract for every policy: Assign must be a pure function
// of (n, shards, footprint) — no wall-clock, no randomness, no feedback
// from measured times — and must return contiguous ordered shards covering
// [0, n) exactly. Under that contract the executor's result remains a pure
// function of the schedule and identical for every worker count.

import (
	"fmt"
	"sort"
)

// ExecutorConfig bundles the round executor's knobs. A run's result is a
// function of Shards and Partition (and the protocol's own scheduler and
// seed), never of Workers.
type ExecutorConfig struct {
	// Workers is the pool width (<= 0: GOMAXPROCS). It only changes
	// wall-clock time, never the schedule.
	Workers int
	// Shards is the target partition size (<= 0: DefaultShards). Part of
	// the schedule, like Partition.
	Shards int
	// Partition names the shard-assignment policy ("" = contiguous). See
	// PartitionPolicies.
	Partition string
}

// Footprint describes one node to the partitioner: the dense-index span
// its operation can touch (its neighborhood plus itself) and an estimated
// activation cost.
type Footprint struct {
	Lo, Hi int     // inclusive dense-index span of N(v) ∪ {v}
	Weight float64 // estimated per-activation work (e.g. degree+1)
}

// FootprintFn supplies the footprint of the node at dense index i. It is
// only consulted while a partition is (re)computed, never on the per-round
// hot path.
type FootprintFn func(i int) Footprint

// BoundaryDiscipline selects how the executor runs the nodes whose
// footprints cross shard boundaries.
type BoundaryDiscipline int

const (
	// BoundarySequential runs cross-shard nodes in the sequential Finish
	// phase, in global identifier order — the conservative baseline.
	BoundarySequential BoundaryDiscipline = iota
	// BoundaryWaves runs cross-shard nodes in deterministic conflict-free
	// waves on the worker pool: each wave greedily picks, in identifier
	// order, nodes whose touch sets (N(v) ∪ {v}) are pairwise disjoint,
	// executes the picks in parallel, and repeats until none remain. The
	// pick schedule is independent of the worker count, so determinism is
	// preserved while the boundary work moves off the sequential path.
	BoundaryWaves
)

// Partitioner is a shard-assignment policy. Implementations must be
// stateless between Assign calls or derive any state deterministically
// from their inputs.
type Partitioner interface {
	// Name returns the policy's name, as NewPartitioner takes it.
	Name() string
	// Assign splits n dense node indices into at most shards contiguous,
	// ordered, exactly-covering shards. footprint may be consulted per
	// node; it is never nil.
	Assign(n, shards int, footprint FootprintFn) []Shard
	// Boundary declares the executor's treatment of cross-shard nodes.
	Boundary() BoundaryDiscipline
	// Refresh reports whether the partition should be recomputed before
	// the given round. crossShare is the previous round's fraction of
	// state-changing activations that fell outside the shard-interior
	// fast path (waves plus sequential fallback); it is deterministic, so
	// refresh decisions are too. Round 0 always assigns regardless.
	Refresh(round int, crossShare float64) bool
}

// ClampShards is the single authority for bounding a shard count against a
// node count: at least one shard, and never more shards than nodes (for
// n = 0 a single empty shard). sim.Partition and DefaultShards both
// delegate here, so callers can no longer disagree about tiny n.
func ClampShards(n, k int) int {
	if k < 1 || n == 0 {
		return 1
	}
	if k > n {
		k = n
	}
	return k
}

// DefaultShards returns the shard count used when ExecutorConfig.Shards is
// unset: enough shards to keep every plausible worker pool busy, few enough
// that per-shard bookkeeping stays negligible, and — deliberately — a
// function of the node count only, never of the machine, so a seed's result
// is reproducible everywhere.
func DefaultShards(n int) int {
	s := n / 512
	if s > 256 {
		s = 256
	}
	return ClampShards(n, s)
}

// Partition splits n dense node indices into shardCount contiguous,
// near-equal shards (deterministically; shard i covers [i*n/k, (i+1)*n/k)).
// This is the contiguous policy's layout and the determinism baseline.
func Partition(n, shardCount int) []Shard {
	shardCount = ClampShards(n, shardCount)
	out := make([]Shard, 0, shardCount)
	for i := 0; i < shardCount; i++ {
		out = append(out, Shard{Index: i, Lo: i * n / shardCount, Hi: (i + 1) * n / shardCount})
	}
	return out
}

// NewPartitioner returns the named policy. The empty name resolves to the
// contiguous baseline.
func NewPartitioner(name string) (Partitioner, error) {
	switch name {
	case "", "contiguous":
		return contiguousPartitioner{}, nil
	case "degree-balanced":
		return degreeBalancedPartitioner{}, nil
	case "locality":
		return localityPartitioner{}, nil
	}
	return nil, fmt.Errorf("unknown partition policy %q (have %v)", name, PartitionPolicies())
}

// PartitionPolicies lists the policy names, sorted.
func PartitionPolicies() []string {
	return []string{"contiguous", "degree-balanced", "locality"}
}

// contiguousPartitioner is the default policy: near-equal index intervals,
// never recomputed, sequential boundary fallback. It is the determinism
// baseline the equivalence tests pin.
type contiguousPartitioner struct{}

func (contiguousPartitioner) Name() string { return "contiguous" }
func (contiguousPartitioner) Assign(n, shards int, _ FootprintFn) []Shard {
	return Partition(n, shards)
}
func (contiguousPartitioner) Boundary() BoundaryDiscipline { return BoundarySequential }
func (contiguousPartitioner) Refresh(int, float64) bool    { return false }

// degreeBalancedPartitioner keeps the identity order but places the
// interval boundaries so estimated per-shard work (the footprint weights —
// the deterministic stand-in for the per-shard busy times the profiler
// records) is equalized instead of node counts. Weights drift as the graph
// grows, so the layout refreshes on a fixed round cadence; measured times
// are never fed back — that would break the determinism contract.
type degreeBalancedPartitioner struct{}

func (degreeBalancedPartitioner) Name() string { return "degree-balanced" }

func (degreeBalancedPartitioner) Assign(n, shards int, footprint FootprintFn) []Shard {
	k := ClampShards(n, shards)
	w := make([]float64, n+1) // prefix weights: w[i] = sum of weights < i
	for i := 0; i < n; i++ {
		wt := footprint(i).Weight
		if wt < 1 {
			wt = 1
		}
		w[i+1] = w[i] + wt
	}
	return cutByTargets(n, k, func(s int) int {
		// Smallest cut whose cumulative weight reaches shard s's target.
		target := w[n] * float64(s) / float64(k)
		return sort.Search(n, func(c int) bool { return w[c] >= target })
	})
}

func (degreeBalancedPartitioner) Boundary() BoundaryDiscipline { return BoundarySequential }
func (degreeBalancedPartitioner) Refresh(round int, _ float64) bool {
	return round%8 == 0
}

// localityPartitioner grows weight-balanced intervals whose cut points
// cross as few node footprints as possible, and opts into the wave
// discipline for the nodes that still cross — the combination that breaks
// the boundary-work ceiling for LSN, whose shortcut edges make any
// balanced cut cross many footprints. The layout is recomputed whenever
// the cross-shard activation share of the previous round drifts above a
// threshold, tracking the graph as linearization reshapes it.
type localityPartitioner struct{}

func (localityPartitioner) Name() string { return "locality" }

func (localityPartitioner) Assign(n, shards int, footprint FootprintFn) []Shard {
	k := ClampShards(n, shards)
	if k == 1 {
		return Partition(n, 1)
	}
	// crossings[c] counts footprints spanning the cut between index c-1 and
	// c; built as a difference array (+1 over (lo, hi]) and prefix-summed.
	crossings := make([]int32, n+2)
	w := make([]float64, n+1)
	for i := 0; i < n; i++ {
		fp := footprint(i)
		wt := fp.Weight
		if wt < 1 {
			wt = 1
		}
		w[i+1] = w[i] + wt
		lo, hi := fp.Lo, fp.Hi
		if lo < 0 {
			lo = 0
		}
		if hi > n-1 {
			hi = n - 1
		}
		if lo < hi {
			crossings[lo+1]++
			crossings[hi+1]--
		}
	}
	for c := 1; c <= n; c++ {
		crossings[c] += crossings[c-1]
	}
	// Greedy interval growing: each shard's cut starts at the weight-
	// balanced position, then slides within a window to the cheapest cut.
	window := n / (8 * k)
	if window < 16 {
		window = 16
	}
	return cutByTargets(n, k, func(s int) int {
		target := w[n] * float64(s) / float64(k)
		ideal := sort.Search(n, func(c int) bool { return w[c] >= target })
		lo, hi := ideal-window, ideal+window
		if lo < 1 {
			lo = 1
		}
		if hi > n-1 {
			hi = n - 1
		}
		best := ideal
		if best < lo {
			best = lo
		}
		if best > hi {
			best = hi
		}
		for c := lo; c <= hi; c++ {
			if crossings[c] < crossings[best] {
				best = c
			} else if crossings[c] == crossings[best] && abs(c-ideal) < abs(best-ideal) {
				best = c
			}
		}
		return best
	})
}

func (localityPartitioner) Boundary() BoundaryDiscipline { return BoundaryWaves }
func (localityPartitioner) Refresh(_ int, crossShare float64) bool {
	return crossShare > 0.25
}

// cutByTargets builds k ordered shards over [0, n) from a per-shard cut
// proposal, enforcing monotonicity and leaving room so every shard keeps at
// least one node (when n allows).
func cutByTargets(n, k int, cutFor func(s int) int) []Shard {
	out := make([]Shard, 0, k)
	lo := 0
	for s := 0; s < k; s++ {
		hi := n
		if s < k-1 {
			hi = cutFor(s + 1)
			if min := lo + 1; hi < min {
				hi = min
			}
			if max := n - (k - 1 - s); hi > max {
				hi = max
			}
		}
		out = append(out, Shard{Index: s, Lo: lo, Hi: hi})
		lo = hi
	}
	return out
}

func abs(x int) int {
	if x < 0 {
		return -x
	}
	return x
}

// validatePartition panics when a policy returns a malformed layout —
// policy bugs must fail loudly, not silently corrupt the schedule.
func validatePartition(n int, shards []Shard, policy string) {
	if len(shards) == 0 {
		panic(fmt.Sprintf("sim: policy %q returned no shards for n=%d", policy, n))
	}
	at := 0
	for i, s := range shards {
		if s.Index != i || s.Lo != at || s.Hi < s.Lo {
			panic(fmt.Sprintf("sim: policy %q returned malformed shard %d (%+v) for n=%d", policy, i, s, n))
		}
		at = s.Hi
	}
	if at != n {
		panic(fmt.Sprintf("sim: policy %q covers [0,%d) of n=%d", policy, at, n))
	}
}
