package main

// The bench subcommand measures the report path's throughput — JSONL
// decode through trace.Scanner plus aggregation through trace.Analysis —
// over a synthetic trace shaped like a real bootstrap (message events with
// per-node attribution, round bookkeeping, probe samples). The result goes
// to a JSON baseline so CI can watch for analysis-path regressions.
//
// `bench compare <old> <new>` diffs two BENCH_*.json artifacts leaf by
// leaf: it refuses mismatched configurations (benchfmt.Meta headers),
// prints every changed field, and exits non-zero when a gated field moved
// by more than the tolerance — the CI perf gate.

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"regexp"
	"time"

	"repro/internal/benchfmt"
	"repro/internal/ids"
	"repro/internal/metrics"
	"repro/internal/trace"
)

type benchResult struct {
	Meta         benchfmt.Meta `json:"meta"`
	Bench        string        `json:"bench"`
	Events       int           `json:"events"`
	Nodes        int           `json:"nodes"`
	TraceBytes   int           `json:"trace_bytes"`
	Reps         int           `json:"reps"`
	PerRunMs     []float64     `json:"per_run_ms"`
	BestMs       float64       `json:"best_ms"`
	MeanMs       float64       `json:"mean_ms"`
	EventsPerSec float64       `json:"events_per_sec"` // from the best rep
}

// syntheticTrace renders n events of bootstrap-like shape to JSONL.
func syntheticTrace(n, nodes int) []byte {
	var buf bytes.Buffer
	w := trace.NewJSONLWriter(&buf)
	kinds := []string{"ssr:notify", "ssr:ack", "ssr:delegate", "ssr:probe"}
	round := int64(0)
	for i := 0; i < n; i++ {
		src := ids.ID(uint64(i%nodes) + 1)
		dst := ids.ID(uint64((i+7)%nodes) + 1)
		switch {
		case i%97 == 0:
			w.Emit(trace.Event{T: round, Type: trace.EvRoundEnd, Value: float64(nodes)})
			round++
		case i%61 == 0:
			w.Emit(trace.Event{T: round, Type: trace.EvProbe, Kind: "distance", Value: float64(n - i)})
		case i%13 == 0:
			w.Emit(trace.Event{T: round, Type: trace.EvMsgDrop, Node: src, Peer: dst, Kind: kinds[i%len(kinds)], Aux: "loss"})
		case i%2 == 0:
			w.Emit(trace.Event{T: round, Type: trace.EvMsgSend, Node: src, Peer: dst, Kind: kinds[i%len(kinds)], Value: 2})
		default:
			w.Emit(trace.Event{T: round, Type: trace.EvMsgRecv, Node: dst, Peer: src, Kind: kinds[i%len(kinds)]})
		}
	}
	if err := w.Close(); err != nil {
		panic(err)
	}
	return buf.Bytes()
}

func cmdBench(args []string) error {
	if len(args) > 0 && args[0] == "compare" {
		return cmdBenchCompare(args[1:])
	}
	fs := flag.NewFlagSet("tracectl bench", flag.ExitOnError)
	events := fs.Int("events", 500_000, "synthetic events per rep")
	nodes := fs.Int("nodes", 256, "distinct node ids in the synthetic trace")
	reps := fs.Int("reps", 5, "measurement repetitions")
	out := fs.String("out", "", "write the JSON baseline here (default: stdout only)")
	fs.Parse(args)

	// The synthetic event count rides in Sizes so compare refuses baselines
	// taken at a different trace size.
	meta := benchfmt.NewMeta("tracectl-report-throughput")
	meta.N, meta.Sizes = *nodes, []int{*events}
	data := syntheticTrace(*events, *nodes)
	res := benchResult{
		Meta:       meta,
		Bench:      "tracectl-report-throughput",
		Events:     *events,
		Nodes:      *nodes,
		TraceBytes: len(data),
		Reps:       *reps,
	}
	var total float64
	for r := 0; r < *reps; r++ {
		start := time.Now()
		a, err := trace.AnalyzeStream(trace.NewScanner(bytes.NewReader(data)))
		elapsed := time.Since(start)
		if err != nil {
			return fmt.Errorf("bench: %w", err)
		}
		if a.Events() != int64(*events) {
			return fmt.Errorf("bench: analyzed %d events, want %d", a.Events(), *events)
		}
		ms := float64(elapsed.Nanoseconds()) / 1e6
		res.PerRunMs = append(res.PerRunMs, ms)
		total += ms
		if res.BestMs == 0 || ms < res.BestMs {
			res.BestMs = ms
		}
	}
	res.MeanMs = total / float64(*reps)
	res.EventsPerSec = float64(*events) / (res.BestMs / 1000)

	fmt.Printf("tracectl bench: %d events, best %.1f ms, %.0f events/sec\n",
		res.Events, res.BestMs, res.EventsPerSec)
	if *out != "" {
		blob, err := json.MarshalIndent(res, "", "  ")
		if err != nil {
			return err
		}
		if err := os.WriteFile(*out, append(blob, '\n'), 0o644); err != nil {
			return err
		}
		fmt.Println("wrote", *out)
	}
	return nil
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
