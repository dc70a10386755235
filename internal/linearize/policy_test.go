package linearize

// Equivalence suite for the partition-policy seam. Each registered policy
// must honor the executor's determinism contract: the outcome is a pure
// function of the schedule (partition size + policy), identical for every
// worker count — including the full trace stream. The contiguous policy is
// additionally pinned as the default.

import (
	"testing"

	"repro/internal/sim"
)

// TestPolicyIndependentOfWorkers: for every policy, the Workers=1 run is the
// reference; every other worker count must match it bit for bit — final
// graph, stats and the complete trace stream (shard accounting included,
// since the partition itself is part of the schedule).
func TestPolicyIndependentOfWorkers(t *testing.T) {
	g := randomConnected(400, 13)
	for _, v := range Variants() {
		for _, policy := range sim.PartitionPolicies() {
			base := Config{Variant: v, Scheduler: sim.Synchronous, CloseRing: true,
				Executor: sim.ExecutorConfig{Workers: 1, Shards: 8, Partition: policy}}
			refStats, refGraph, refEvents := runOnce(g, base)
			label := v.String() + "/" + policy
			if !refStats.Converged {
				t.Fatalf("%s: reference run did not converge: %s", label, refStats)
			}
			if !refGraph.SupersetOfLine() || !refGraph.Connected() {
				t.Fatalf("%s: converged graph violates the line invariant", label)
			}
			for _, workers := range []int{2, 4, 8} {
				cfg := base
				cfg.Executor.Workers = workers
				st, fg, evs := runOnce(g, cfg)
				if !fg.Equal(refGraph) {
					t.Fatalf("%s workers=%d: final graph differs from workers=1", label, workers)
				}
				if st.Par.Policy != policy {
					t.Fatalf("%s: run recorded policy %q", label, st.Par.Policy)
				}
				sameStats(t, label, st, refStats)
				sameEvents(t, label, refEvents, evs)
			}
		}
	}
}

// TestPolicyFinalGraphsMatchSequential: the cross-policy anchor. Memory's
// Jacobi schedule normalizes proposal order, so every policy — whatever its
// cuts or boundary discipline — must land on exactly the one-shard run's
// final graph. The atomic variants (Pure/LSN) follow different
// but equally valid Gauss-Seidel schedules per policy; for them every
// policy's converged result must still be the same sorted ring under Pure,
// which is schedule-independent.
func TestPolicyFinalGraphsMatchSequential(t *testing.T) {
	g := randomConnected(300, 29)
	oneShard := Config{Variant: Memory, Scheduler: sim.Synchronous, CloseRing: true,
		Executor: sim.ExecutorConfig{Shards: 1}}
	_, lGraph, _ := runOnce(g, oneShard)
	for _, policy := range sim.PartitionPolicies() {
		cfg := oneShard
		cfg.Executor = sim.ExecutorConfig{Workers: 4, Shards: 8, Partition: policy}
		_, fg, _ := runOnce(g, cfg)
		if !fg.Equal(lGraph) {
			t.Fatalf("memory/%s: final graph differs from the one-shard run", policy)
		}
	}
	pureRef := Config{Variant: Pure, Scheduler: sim.Synchronous, CloseRing: true,
		Executor: sim.ExecutorConfig{Shards: 1}}
	_, pGraph, _ := runOnce(g, pureRef)
	if !pGraph.IsSortedRing() {
		t.Fatal("pure one-shard run must end on the sorted ring")
	}
	for _, policy := range sim.PartitionPolicies() {
		cfg := pureRef
		cfg.Executor = sim.ExecutorConfig{Workers: 4, Shards: 8, Partition: policy}
		_, fg, _ := runOnce(g, cfg)
		if !fg.Equal(pGraph) {
			t.Fatalf("pure/%s: converged ring differs from the one-shard run", policy)
		}
	}
}

// TestContiguousIsTheDefault: an empty policy name and "contiguous" are the
// same schedule.
func TestContiguousIsTheDefault(t *testing.T) {
	g := randomConnected(250, 7)
	for _, v := range Variants() {
		named := Config{Variant: v, Scheduler: sim.Synchronous, CloseRing: true,
			Executor: sim.ExecutorConfig{Workers: 3, Shards: 6, Partition: "contiguous"}}
		nStats, nGraph, nEvents := runOnce(g, named)
		unnamed := named
		unnamed.Executor.Partition = ""
		uStats, uGraph, uEvents := runOnce(g, unnamed)
		label := v.String()
		if !uGraph.Equal(nGraph) {
			t.Fatalf("%s: the default policy diverges from contiguous", label)
		}
		sameStats(t, label, uStats, nStats)
		sameEvents(t, label, nEvents, uEvents)
	}
}

// TestWavesMoveBoundaryWork: on an LSN run the locality policy must actually
// shift cross-shard activations from the sequential Finish phase onto the
// parallel waves — the whole point of the policy — while the contiguous
// baseline keeps them sequential.
func TestWavesMoveBoundaryWork(t *testing.T) {
	g := randomConnected(600, 3)
	run := func(policy string) Stats {
		st, _, _ := runOnce(g, Config{Variant: LSN, Scheduler: sim.Synchronous, CloseRing: true,
			Executor: sim.ExecutorConfig{Workers: 4, Shards: 8, Partition: policy}})
		return st
	}
	cont, loc := run("contiguous"), run("locality")
	if cont.Par.WaveActivations != 0 {
		t.Fatalf("contiguous must not run waves, got %d", cont.Par.WaveActivations)
	}
	if loc.Par.WaveActivations == 0 {
		t.Fatal("locality ran no wave activations on an LSN workload")
	}
	contSeq := cont.Par.BoundaryActivations
	locSeq := loc.Par.BoundaryActivations
	if locSeq >= contSeq {
		t.Fatalf("locality sequential boundary work (%d) not below contiguous (%d)", locSeq, contSeq)
	}
}

// TestUnknownPolicyPanics: Run must fail loudly on a policy name the
// registry does not know — a misspelled flag must not silently fall back.
func TestUnknownPolicyPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("unknown partition policy must panic")
		}
	}()
	g := randomConnected(50, 1)
	Run(g, Config{Variant: LSN, Scheduler: sim.Synchronous,
		Executor: sim.ExecutorConfig{Workers: 2, Partition: "no-such-policy"}})
}
