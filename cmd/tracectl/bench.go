package main

// `bench compare <old> <new>` diffs two BENCH_*.json artifacts leaf by
// leaf: it refuses mismatched configurations (benchfmt.Meta headers),
// prints every changed field, and exits non-zero when a gated field moved
// by more than the tolerance — the CI perf gate. (The analysis path's own
// throughput is BenchmarkAnalyzeStream in internal/trace.)

import (
	"flag"
	"fmt"
	"os"
	"regexp"

	"repro/internal/benchfmt"
	"repro/internal/metrics"
)

func cmdBench(args []string) error {
	if len(args) == 0 || args[0] != "compare" {
		return fmt.Errorf("bench: want `bench compare <baseline.json> <candidate.json>`")
	}
	return cmdBenchCompare(args[1:])
}

// cmdBenchCompare diffs two bench artifacts: baseline first, candidate
// second. Exit status 1 (via the returned error) means a gated field
// regressed beyond tolerance.
func cmdBenchCompare(args []string) error {
	fs := flag.NewFlagSet("tracectl bench compare", flag.ExitOnError)
	tol := fs.Float64("tol", 0.0, "relative tolerance before a gated change counts as a regression")
	gatePat := fs.String("gate", benchfmt.DefaultGate, "regexp of field paths the gate judges (empty: every field)")
	force := fs.Bool("force", false, "compare even when the meta headers say the configs differ")
	quiet := fs.Bool("quiet", false, "only print gate failures, not every changed field")
	fs.Parse(args)
	if fs.NArg() != 2 {
		return fmt.Errorf("bench compare: want <baseline.json> <candidate.json>, got %d args", fs.NArg())
	}
	oldF, err := benchfmt.Load(fs.Arg(0))
	if err != nil {
		return err
	}
	newF, err := benchfmt.Load(fs.Arg(1))
	if err != nil {
		return err
	}
	if err := oldF.Meta.CompatibleWith(newF.Meta); err != nil {
		if !*force {
			return fmt.Errorf("%v (use -force to compare anyway)", err)
		}
		fmt.Fprintf(os.Stderr, "tracectl: warning: %v (continuing under -force)\n", err)
	}

	var gate *regexp.Regexp
	if *gatePat != "" {
		gate, err = regexp.Compile(*gatePat)
		if err != nil {
			return fmt.Errorf("bench compare: -gate: %w", err)
		}
	}

	deltas, onlyOld, onlyNew := benchfmt.Diff(oldF.Doc, newF.Doc)
	fmt.Printf("== bench compare: baseline=%s  candidate=%s ==\n", fs.Arg(0), fs.Arg(1))
	if !*quiet {
		var moved []benchfmt.Delta
		for _, d := range deltas {
			if d.Changed() {
				moved = append(moved, d)
			}
		}
		if len(moved) > 0 {
			fmt.Printf("\n-- changed fields (%d of %d shared) --\n", len(moved), len(deltas))
			fmt.Print(deltaRows(moved))
		} else {
			fmt.Printf("no changes across %d shared fields\n", len(deltas))
		}
		for _, p := range onlyOld {
			fmt.Printf("only in baseline: %s\n", p)
		}
		for _, p := range onlyNew {
			fmt.Printf("only in candidate: %s\n", p)
		}
	}

	regs := benchfmt.Regressions(deltas, gate, *tol)
	if len(regs) > 0 {
		fmt.Printf("\nGATE FAILED: %d gated field(s) moved beyond tol=%g\n", len(regs), *tol)
		fmt.Print(deltaRows(regs))
		return fmt.Errorf("bench compare: %d gated regression(s)", len(regs))
	}
	fmt.Println("gate: PASS")
	return nil
}

func deltaRows(ds []benchfmt.Delta) *metrics.Table {
	tab := metrics.NewTable("field", "baseline", "candidate", "rel")
	for _, d := range ds {
		tab.AddRow(d.Path, fmt.Sprintf("%g", d.Old), fmt.Sprintf("%g", d.New), fmt.Sprintf("%+.1f%%", 100*d.Rel))
	}
	return tab
}
