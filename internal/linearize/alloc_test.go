package linearize

import (
	"runtime"
	"testing"

	"repro/internal/graph"
	"repro/internal/sim"
)

// memoryAllocBudgetMB bounds what one Memory run of the layered benchmark's
// first lin-memory-regular input allocates. A round that copied the image
// and concatenated the shard proposals before the merge made the run
// allocate 29.0 MB by this test's count; merging from the shard buffers
// into an image that grows in place takes it to 19.3 MB, and giving the
// merge's scratch amortized growth (graph.resized) to 18.0 MB. The budget
// is that figure plus the 2.7 MB margin the 22 MB budget left over 19.3.
const memoryAllocBudgetMB = 20.7

// TestMemoryRunAllocations reads the bytes one Memory Run allocates on
// regular n=6000, seed 2²⁰ (lin-memory-regular's first input), on two
// workers, output graph included. It must not run beside other tests, since
// TotalAlloc counts every goroutine of the process.
func TestMemoryRunAllocations(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector's allocations count toward TotalAlloc")
	}
	g, err := graph.Generate(graph.TopoRegular, 6000, graph.RandomIDs, 1<<20)
	if err != nil {
		t.Fatal(err)
	}
	var m0, m1 runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&m0)
	st, _ := Run(g, Config{Variant: Memory, Executor: sim.ExecutorConfig{Workers: 2}})
	runtime.ReadMemStats(&m1)
	if !st.Converged {
		t.Fatalf("no convergence: %s", st)
	}
	mb := float64(m1.TotalAlloc-m0.TotalAlloc) / (1 << 20)
	t.Logf("one Memory run allocates %.1f MB (%d rounds)", mb, st.Rounds)
	if mb > memoryAllocBudgetMB {
		t.Fatalf("one Memory run allocates %.1f MB, above the %.1f MB budget", mb, memoryAllocBudgetMB)
	}
}
