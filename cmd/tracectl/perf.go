package main

// The perf subcommand turns a round-level trace back into a performance
// story: per-shard activation attribution (the boundary-vs-interior
// split), which every sharded round-model run records, and, when the run
// was profiled (linearize.Config.Prof), the profiler's EvSpan side
// channel: per-phase wall time, the sequential share, per-shard busy time
// and allocator/GC pressure. It consumes the same JSONL traces as
// report/diff, so the breakdown works live (ssrsim -trace) or post-mortem
// on archived runs.

import (
	"flag"
	"fmt"
	"sort"

	"repro/internal/metrics"
	"repro/internal/trace"
)

func cmdPerf(args []string) error {
	fs := flag.NewFlagSet("tracectl perf", flag.ExitOnError)
	topShards := fs.Int("top-shards", 0, "only print the N busiest shards (0: all)")
	fs.Parse(args)
	if fs.NArg() != 1 {
		return fmt.Errorf("perf: want exactly one trace file, got %d", fs.NArg())
	}
	path := fs.Arg(0)
	a, err := analyzeFile(path)
	if err != nil {
		return err
	}
	p := a.Perf()
	if p.Empty() {
		return fmt.Errorf("%s: no span or shard events — perf needs a round-level trace of a sharded round-model run (ssrsim -trace-level round)", path)
	}

	fmt.Printf("== perf breakdown: %s ==\n", path)
	fmt.Printf("rounds=%d\n", p.Rounds)
	if p.Policy != "" {
		fmt.Printf("partition policy=%s shards=%d rounds=%d\n", p.Policy, p.PolicyShards, p.PolicyRounds)
	}

	// Timing comes only from the profiler's spans; an unprofiled trace
	// carries the shard activation counts alone.
	profiled := len(p.Spans) > 0
	if profiled {
		fmt.Println("\n-- phase wall time --")
		tab := metrics.NewTable("span", "count", "total ms", "mean µs", "max µs", "share")
		wall := p.SeqNs() + p.ParNs()
		for _, s := range p.Spans {
			mean := 0.0
			if s.Count > 0 {
				mean = s.TotalNs / float64(s.Count)
			}
			share := 0.0
			if wall > 0 {
				share = s.TotalNs / wall
			}
			tab.AddRow(s.Name, s.Count,
				fmt.Sprintf("%.2f", s.TotalNs/1e6),
				fmt.Sprintf("%.1f", mean/1e3),
				fmt.Sprintf("%.1f", s.MaxNs/1e3),
				fmt.Sprintf("%.3f", share))
		}
		fmt.Print(tab)
		if wall > 0 {
			fmt.Printf("sequential %.2f ms  parallel %.2f ms  seq share %.3f\n",
				p.SeqNs()/1e6, p.ParNs()/1e6, p.SeqShare())
		}
	}

	if len(p.Shards) > 0 {
		// Union of activation phases across shards, so the table has one
		// column per phase ("propose" for Jacobi, interior/boundary for the
		// atomic variants).
		phaseSet := map[string]bool{}
		for _, s := range p.Shards {
			for ph := range s.Activations {
				phaseSet[ph] = true
			}
		}
		phases := make([]string, 0, len(phaseSet))
		for ph := range phaseSet {
			phases = append(phases, ph)
		}
		sort.Strings(phases)

		rows := append([]trace.ShardPerf(nil), p.Shards...)
		if *topShards > 0 && len(rows) > *topShards {
			sort.Slice(rows, func(i, j int) bool { return rows[i].BusyNs > rows[j].BusyNs })
			rows = rows[:*topShards]
			sort.Slice(rows, func(i, j int) bool { return rows[i].Shard < rows[j].Shard })
		}
		fmt.Printf("\n-- shard cost attribution (%d shards) --\n", len(p.Shards))
		cols := []string{"shard"}
		if profiled {
			cols = append(cols, "busy ms")
		}
		stab := metrics.NewTable(append(cols, phases...)...)
		for _, s := range rows {
			row := []any{s.Shard}
			if profiled {
				row = append(row, fmt.Sprintf("%.2f", s.BusyNs/1e6))
			}
			for _, ph := range phases {
				row = append(row, s.Activations[ph])
			}
			stab.AddRow(row...)
		}
		totals := p.ActivationTotals()
		trow := []any{"TOTAL"}
		if profiled {
			trow = append(trow, fmt.Sprintf("%.2f", busyTotal(p.Shards)/1e6))
		}
		for _, ph := range phases {
			trow = append(trow, totals[ph])
		}
		stab.AddRow(trow...)
		fmt.Print(stab)

		// Wave activations are cross-shard work executed in parallel by the
		// conflict-free wave scheduler — they count against the boundary
		// only in the sense of partition quality, not the sequential share.
		if bnd, wav, in := totals["boundary"], totals["wave"], totals["interior"]; bnd+wav+in > 0 {
			share := float64(bnd) / float64(bnd+wav+in)
			fmt.Printf("boundary share: %.1f%% (%d boundary vs %d wave + %d interior activations)\n",
				100*share, bnd, wav, in)
			if share > 0.5 {
				fmt.Println("boundary work dominates — most activations run in the sequential Finish phase (-partition locality moves them onto parallel waves)")
			}
		}
		if p.ImbalanceMean > 0 {
			fmt.Printf("parallel-phase imbalance (max/mean shard busy): mean %.2f  worst round %.2f\n",
				p.ImbalanceMean, p.ImbalanceMax)
		}
	}

	if p.Mallocs > 0 || p.AllocBytes > 0 {
		fmt.Println("\n-- allocator --")
		fmt.Printf("alloc %.1f MiB  mallocs %.0f  gc cycles %.0f",
			p.AllocBytes/(1<<20), p.Mallocs, p.GCCycles)
		if p.Rounds > 0 {
			fmt.Printf("  (%.1f KiB/round)", p.AllocBytes/float64(p.Rounds)/1024)
		}
		fmt.Println()
	}
	return nil
}

func busyTotal(shards []trace.ShardPerf) float64 {
	var t float64
	for _, s := range shards {
		t += s.BusyNs
	}
	return t
}
