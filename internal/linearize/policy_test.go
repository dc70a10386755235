package linearize

// Equivalence suite for the partition-policy seam. Each registered policy
// must honor the executor's determinism contract: the outcome is a pure
// function of the schedule (partition size + policy), identical for every
// worker count — including the full trace stream. The contiguous policy is
// additionally pinned as the default.

import (
	"testing"

	"repro/internal/graph"
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

// TestActivationSplitPinned pins the round count, the convergence flag and
// the interior/wave/boundary activation split of every variant under the
// contiguous and the locality policy, on one n=10 000 regular graph (seed
// 1, 6 rounds, 2 workers, the default 19 shards). These counts are pure
// functions of the schedule, so they hold on any machine; a change that
// moves work between the parallel phases and the sequential Finish phase
// moves a count here.
func TestActivationSplitPinned(t *testing.T) {
	g, err := graph.Generate(graph.TopoRegular, 10000, graph.RandomIDs, 1)
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		policy                   string
		variant                  Variant
		interior, wave, boundary int64
	}{
		{"contiguous", Pure, 971, 0, 16312},
		{"contiguous", Memory, 58733, 0, 0},
		{"contiguous", LSN, 663, 0, 58547},
		{"locality", Pure, 18720, 19854, 2},
		{"locality", Memory, 58733, 0, 0},
		{"locality", LSN, 1282, 58133, 12},
	} {
		st, _ := Run(g, Config{Variant: tc.variant, Scheduler: sim.Synchronous, MaxRounds: 6, CloseRing: true,
			Executor: sim.ExecutorConfig{Workers: 2, Partition: tc.policy}})
		label, p := tc.policy+"/"+tc.variant.String(), st.Par
		if st.Rounds != 6 || st.Converged {
			t.Errorf("%s: rounds=%d converged=%v, want 6 false", label, st.Rounds, st.Converged)
		}
		if p.Workers != 2 || p.Shards != 19 || p.Policy != tc.policy {
			t.Errorf("%s: executor ran workers=%d shards=%d policy=%q", label, p.Workers, p.Shards, p.Policy)
		}
		if p.InteriorActivations != tc.interior || p.WaveActivations != tc.wave || p.BoundaryActivations != tc.boundary {
			t.Errorf("%s: interior/wave/boundary = %d/%d/%d, want %d/%d/%d", label,
				p.InteriorActivations, p.WaveActivations, p.BoundaryActivations, tc.interior, tc.wave, tc.boundary)
		}
	}
}
