package sim

import (
	"fmt"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/trace"
)

// recordingTracer is a minimal sink for option-wiring tests.
type recordingTracer struct{ events []trace.Event }

func (r *recordingTracer) Emit(e trace.Event) { r.events = append(r.events, e) }

func TestPartitionCoversContiguously(t *testing.T) {
	for _, tc := range []struct{ n, k int }{
		{0, 4}, {1, 4}, {7, 3}, {100, 7}, {100, 1}, {5, 5}, {3, 8}, {1000, 256},
	} {
		shards := Partition(tc.n, tc.k)
		at := 0
		for i, s := range shards {
			if s.Index != i {
				t.Fatalf("n=%d k=%d: shard %d has Index %d", tc.n, tc.k, i, s.Index)
			}
			if s.Lo != at {
				t.Fatalf("n=%d k=%d: shard %d starts at %d, want %d", tc.n, tc.k, i, s.Lo, at)
			}
			if s.Hi < s.Lo {
				t.Fatalf("n=%d k=%d: shard %d inverted", tc.n, tc.k, i)
			}
			at = s.Hi
		}
		if at != tc.n {
			t.Fatalf("n=%d k=%d: coverage ends at %d", tc.n, tc.k, at)
		}
		// Balance: sizes differ by at most one.
		minSz, maxSz := tc.n+1, -1
		for _, s := range shards {
			if s.Len() < minSz {
				minSz = s.Len()
			}
			if s.Len() > maxSz {
				maxSz = s.Len()
			}
		}
		if len(shards) > 0 && maxSz-minSz > 1 {
			t.Fatalf("n=%d k=%d: unbalanced shards (%d..%d)", tc.n, tc.k, minSz, maxSz)
		}
	}
}

func TestDefaultShardsScales(t *testing.T) {
	if DefaultShards(10) != 1 {
		t.Fatalf("small n must collapse to one shard, got %d", DefaultShards(10))
	}
	if s := DefaultShards(10_000); s < 2 {
		t.Fatalf("10k nodes should shard, got %d", s)
	}
	if s := DefaultShards(10_000_000); s != 256 {
		t.Fatalf("shard count must cap at 256, got %d", s)
	}
}

// TestShardedRunnerPhases checks phase ordering, activation accounting and
// worker-count independence on a commuting toy protocol: every node
// increments its own cell until all cells hit a target.
func TestShardedRunnerPhases(t *testing.T) {
	const n, target = 100, 3
	for _, workers := range []int{1, 4} {
		cells := make([]int, n)
		var mu sync.Mutex
		finishCalls := 0
		rr := &ShardedRunner{
			Partitioner: contiguousPartitioner{},
			Workers:     workers,
			Shards:      8,
			NodeCount:   func() int { return n },
			Done: func() bool {
				for _, c := range cells {
					if c < target {
						return false
					}
				}
				return true
			},
			Execute: func(_ int, s Shard) int {
				changed := 0
				for i := s.Lo; i < s.Hi; i++ {
					if cells[i] < target {
						cells[i]++
						changed++
					}
				}
				return changed
			},
			Finish: func(int) int {
				mu.Lock()
				finishCalls++
				mu.Unlock()
				return 0
			},
		}
		res := rr.Run()
		if !res.Converged {
			t.Fatalf("workers=%d: did not converge", workers)
		}
		if res.Rounds != target {
			t.Fatalf("workers=%d: rounds=%d want %d", workers, res.Rounds, target)
		}
		if res.Activations != n*target {
			t.Fatalf("workers=%d: activations=%d want %d", workers, res.Activations, n*target)
		}
		if res.ParallelActivations != res.Activations {
			t.Fatalf("workers=%d: all work was parallel, got %d/%d",
				workers, res.ParallelActivations, res.Activations)
		}
		if finishCalls != target {
			t.Fatalf("workers=%d: Finish ran %d times, want %d", workers, finishCalls, target)
		}
		if res.Shards != 8 {
			t.Fatalf("workers=%d: shards=%d want 8", workers, res.Shards)
		}
	}
}

func TestShardedRunnerDoneBeforeStart(t *testing.T) {
	rr := &ShardedRunner{
		Partitioner: contiguousPartitioner{},
		NodeCount:   func() int { return 10 },
		Done:        func() bool { return true },
		Execute:     func(int, Shard) int { t.Fatal("must not execute"); return 0 },
	}
	res := rr.Run()
	if !res.Converged || res.Rounds != 0 {
		t.Fatalf("pre-converged run: %+v", res)
	}
}

func TestShardedRunnerMaxRounds(t *testing.T) {
	rounds := 0
	rr := &ShardedRunner{
		Partitioner: contiguousPartitioner{},
		MaxRounds:   5,
		NodeCount:   func() int { return 4 },
		Done:        func() bool { return false },
		Finish:      func(int) int { rounds++; return 1 },
	}
	res := rr.Run()
	if res.Converged || res.Rounds != 5 || rounds != 5 {
		t.Fatalf("bound ignored: %+v (finish ran %d)", res, rounds)
	}
	if res.Activations != 5 || res.ParallelActivations != 0 {
		t.Fatalf("sequential accounting wrong: %+v", res)
	}
}

// TestShardedRunnerHookOrder pins the order of a round's hooks, every round:
// BeginRound, Prepare, Execute, Waves, Finish, EndRound.
func TestShardedRunnerHookOrder(t *testing.T) {
	var calls []string
	note := func(name string, round int) int {
		calls = append(calls, fmt.Sprintf("%s:%d", name, round))
		return 0
	}
	rr := &ShardedRunner{
		Partitioner: contiguousPartitioner{},
		Shards:      1,
		MaxRounds:   2,
		NodeCount:   func() int { return 10 },
		Done:        func() bool { return false },
		BeginRound:  func(r int) { note("begin", r) },
		Prepare:     func(r int, _ Shard) int { return note("prepare", r) },
		Execute:     func(r int, _ Shard) int { return note("execute", r) },
		Waves:       func(r int, _ ParallelFor) int { return note("waves", r) },
		Finish:      func(r int) int { return note("finish", r) },
		EndRound:    func(r int) { note("end", r) },
	}
	rr.Run()
	want := "begin:0 prepare:0 execute:0 waves:0 finish:0 end:0 begin:1 prepare:1 execute:1 waves:1 finish:1 end:1"
	if got := strings.Join(calls, " "); got != want {
		t.Fatalf("hook order:\n got %s\nwant %s", got, want)
	}
}

func TestEngineOptions(t *testing.T) {
	rec := recordingTracer{}
	e := NewEngine(1, WithTracer(&rec))
	if e.Tracer() != &rec {
		t.Fatal("WithTracer did not install the tracer")
	}
	e = NewEngine(1, WithTracer(nil))
	if e.Tracer() != nil {
		t.Fatal("WithTracer(nil) must leave no tracer")
	}
}

// recordingProfiler captures the profiler call sequence for ordering checks.
type recordingProfiler struct {
	calls []string
}

func (r *recordingProfiler) RoundStart(round int) {
	r.calls = append(r.calls, fmt.Sprintf("start:%d", round))
}
func (r *recordingProfiler) PhaseTime(round int, phase string, d time.Duration) {
	r.calls = append(r.calls, "phase:"+phase)
}
func (r *recordingProfiler) ShardTime(round int, phase string, shard int, d time.Duration) {
	r.calls = append(r.calls, fmt.Sprintf("shard:%s:%d", phase, shard))
}
func (r *recordingProfiler) RoundEnd(round int) {
	r.calls = append(r.calls, fmt.Sprintf("end:%d", round))
}

// TestShardedRunnerProfilerSequence pins the deterministic observation
// order: RoundStart, timed begin, each parallel phase followed by its
// per-shard times in ascending shard order, finish, end, RoundEnd — and
// that attaching a profiler changes neither rounds nor activations.
func TestShardedRunnerProfilerSequence(t *testing.T) {
	const n = 8
	for _, workers := range []int{1, 4} {
		run := func(prof ShardProfiler) ShardResult {
			cells := make([]int, n)
			rr := &ShardedRunner{
				Partitioner: contiguousPartitioner{},
				Workers:     workers,
				Shards:      2,
				NodeCount:   func() int { return n },
				Prof:        prof,
				Done: func() bool {
					for _, c := range cells {
						if c < 1 {
							return false
						}
					}
					return true
				},
				BeginRound: func(int) {},
				Prepare:    func(int, Shard) int { return 0 },
				Execute: func(_ int, s Shard) int {
					changed := 0
					for i := s.Lo; i < s.Hi; i++ {
						if cells[i] < 1 {
							cells[i]++
							changed++
						}
					}
					return changed
				},
				Finish:   func(int) int { return 0 },
				EndRound: func(int) {},
			}
			return rr.Run()
		}
		plain := run(nil)
		rec := &recordingProfiler{}
		profiled := run(rec)
		if plain != profiled {
			t.Fatalf("workers=%d: profiler changed the result: %+v vs %+v", workers, plain, profiled)
		}
		want := []string{
			"start:0", "phase:begin",
			"phase:prepare", "shard:prepare:0", "shard:prepare:1",
			"phase:execute", "shard:execute:0", "shard:execute:1",
			"phase:finish", "phase:end", "end:0",
		}
		if len(rec.calls) != len(want) {
			t.Fatalf("workers=%d: %d profiler calls, want %d: %v", workers, len(rec.calls), len(want), rec.calls)
		}
		for i := range want {
			if rec.calls[i] != want[i] {
				t.Fatalf("workers=%d: call %d = %q, want %q (full: %v)", workers, i, rec.calls[i], want[i], rec.calls)
			}
		}
	}
}
