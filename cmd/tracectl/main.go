// Command tracectl analyzes JSONL event traces written by ssrsim's -trace
// flag. All subcommands stream through trace.Scanner, so multi-GB traces
// are processed in constant memory; files ending in .gz are decompressed
// transparently and "-" reads stdin.
//
//	tracectl report run.jsonl                 # convergence verdict, taxonomy, hot spots
//	tracectl diff lin.jsonl isprp.jsonl       # two runs: rounds + per-type message deltas
//	tracectl timeline -node 42 run.jsonl      # per-node (or per-round) event slice
//	tracectl perf round.jsonl                 # shard activation split (+ phase costs if profiled)
package main

import (
	"compress/gzip"
	"flag"
	"fmt"
	"io"
	"os"
	"sort"
	"strings"

	"repro/internal/ids"
	"repro/internal/metrics"
	"repro/internal/trace"
)

func usage() {
	fmt.Fprintln(os.Stderr, `usage: tracectl <command> [flags] <trace.jsonl[.gz]>…

commands:
  report    convergence verdict, message taxonomy and per-node hot spots of one trace
  diff      compare two traces: rounds-to-converge and per-type message deltas
  timeline  print a filtered slice of events (per node, per type, per time window)
  perf      per-shard activation split of a round-level trace (and per-phase costs of a profiled one)

run 'tracectl <command> -h' for per-command flags`)
	os.Exit(2)
}

func main() {
	if len(os.Args) < 2 {
		usage()
	}
	var err error
	switch os.Args[1] {
	case "report":
		err = cmdReport(os.Args[2:])
	case "diff":
		err = cmdDiff(os.Args[2:])
	case "timeline":
		err = cmdTimeline(os.Args[2:])
	case "perf":
		err = cmdPerf(os.Args[2:], os.Stdout)
	case "-h", "--help", "help":
		usage()
	default:
		fmt.Fprintf(os.Stderr, "tracectl: unknown command %q\n\n", os.Args[1])
		usage()
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "tracectl:", err)
		os.Exit(1)
	}
}

// openTrace opens a trace for streaming: plain files, .gz files, or stdin.
func openTrace(path string) (io.ReadCloser, error) {
	if path == "-" {
		return io.NopCloser(os.Stdin), nil
	}
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	if !strings.HasSuffix(path, ".gz") {
		return f, nil
	}
	zr, err := gzip.NewReader(f)
	if err != nil {
		f.Close()
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return struct {
		io.Reader
		io.Closer
	}{zr, f}, nil
}

// analyzeFile streams one trace into an Analysis. A truncated trace is
// reported on stderr but still analyzed — the partial aggregates are the
// whole point of the crash-recovery path.
func analyzeFile(path string) (*trace.Analysis, error) {
	r, err := openTrace(path)
	if err != nil {
		return nil, err
	}
	defer r.Close()
	a, serr := trace.AnalyzeStream(trace.NewScanner(r))
	if serr != nil {
		fmt.Fprintf(os.Stderr, "tracectl: warning: %s: %v (analyzing the complete prefix)\n", path, serr)
	}
	return a, nil
}

func cmdReport(args []string) error {
	fs := flag.NewFlagSet("tracectl report", flag.ExitOnError)
	top := fs.Int("top", 10, "rows in the per-node hot-spot table")
	fs.Parse(args)
	if fs.NArg() != 1 {
		return fmt.Errorf("report: want exactly one trace file, got %d", fs.NArg())
	}
	path := fs.Arg(0)
	a, err := analyzeFile(path)
	if err != nil {
		return err
	}

	first, last := a.TimeSpan()
	fmt.Printf("== trace report: %s ==\n", path)
	fmt.Printf("events=%d span=[%d,%d]\n", a.Events(), first, last)
	fmt.Printf("verdict: %s\n", a.Verdict())
	if s, ok := a.LastProbe(); ok {
		fmt.Printf("last probe: round=%d missing=%d surplus=%d edges=%d connected=%v multi-left=%d multi-right=%d\n",
			s.Round, s.Missing, s.Surplus, s.Edges, s.Connected, s.MultiLeft, s.MultiRight)
	}

	fmt.Println("\n-- message taxonomy --")
	fmt.Print(trace.TaxonomyTable(a.Taxonomy()))

	if drops := a.DropTotals(); len(drops) > 0 {
		fmt.Println("\n-- drops --")
		tab := metrics.NewTable("reason", "frames")
		for _, d := range drops {
			tab.AddRow(d.Kind, d.Count)
		}
		fmt.Print(tab)
	}

	if rel := a.Rel(); !rel.Empty() {
		fmt.Println("\n-- reliable sublayer --")
		tab := metrics.NewTable("kind", "retransmits")
		for _, kt := range rel.Retransmits {
			tab.AddRow(kt.Kind, kt.Count)
		}
		tab.AddRow("TOTAL", rel.Total)
		fmt.Print(tab)
		fmt.Printf("max attempt=%d  rto samples=%d  rto min/max/last=%g/%g/%g  lease down/up=%d/%d\n",
			rel.MaxAttempt, rel.RTOSamples, rel.RTOMin, rel.RTOMax, rel.RTOLast,
			rel.LeaseDowns, rel.LeaseUps)
	}

	if invs := a.Invariants(); len(invs) > 0 {
		fmt.Println("\n-- invariants (chaos harness) --")
		tab := metrics.NewTable("invariant", "checks", "violations", "first violation")
		for _, iv := range invs {
			first := "-"
			if iv.Violations > 0 {
				first = fmt.Sprintf("t=%d %s", iv.First.T, iv.First.Detail)
			}
			tab.AddRow(iv.Invariant, iv.Checks, iv.Violations, first)
		}
		fmt.Print(tab)
	}

	if hot := a.HotSpotTable(*top); hot.NumRows() > 0 {
		fmt.Printf("\n-- hot spots (top %d senders) --\n", *top)
		fmt.Print(hot)
	} else {
		fmt.Println("\n(no per-message events: hot spots need a msg-level trace)")
	}
	return nil
}

// fmtRound renders a rounds-to-converge value ( -1 = never).
func fmtRound(v int64) string {
	if v < 0 {
		return "never"
	}
	return fmt.Sprintf("%d", v)
}

func cmdDiff(args []string) error {
	fs := flag.NewFlagSet("tracectl diff", flag.ExitOnError)
	fs.Parse(args)
	if fs.NArg() != 2 {
		return fmt.Errorf("diff: want exactly two trace files, got %d", fs.NArg())
	}
	pa, pb := fs.Arg(0), fs.Arg(1)
	a, err := analyzeFile(pa)
	if err != nil {
		return err
	}
	b, err := analyzeFile(pb)
	if err != nil {
		return err
	}
	va, vb := a.Verdict(), b.Verdict()

	fmt.Printf("== trace diff: A=%s  B=%s ==\n", pa, pb)
	fmt.Printf("A verdict: %s\n", va)
	fmt.Printf("B verdict: %s\n\n", vb)

	sum := metrics.NewTable("metric", "A", "B", "delta (B-A)")
	addInt := func(name string, x, y int64) { sum.AddRow(name, x, y, y-x) }
	sum.AddRow("rounds-to-converge", fmtRound(va.ConvergedAt), fmtRound(vb.ConvergedAt),
		deltaRounds(va.ConvergedAt, vb.ConvergedAt))
	addInt("events", a.Events(), b.Events())
	addInt("frames sent", a.TotalSent(), b.TotalSent())
	addInt("oscillations", int64(va.Oscillations), int64(vb.Oscillations))
	addInt("probe samples", int64(va.Probes), int64(vb.Probes))
	fmt.Print(sum)

	fmt.Println("\n-- per-type message delta --")
	tab := deltaTable(a.Taxonomy(), b.Taxonomy())
	tab.AddRow("TOTAL", a.TotalSent(), b.TotalSent(), b.TotalSent()-a.TotalSent())
	fmt.Print(tab)

	// The retransmission table makes a raw-vs-reliable pair comparable: one
	// side all zeros is the raw arm, and the deltas are the reliability cost.
	ra, rb := a.Rel(), b.Rel()
	if !ra.Empty() || !rb.Empty() {
		fmt.Println("\n-- retransmissions (reliable sublayer) --")
		rtab := deltaTable(ra.Retransmits, rb.Retransmits)
		rtab.AddRow("TOTAL", ra.Total, rb.Total, rb.Total-ra.Total)
		rtab.AddRow("lease downs", ra.LeaseDowns, rb.LeaseDowns, rb.LeaseDowns-ra.LeaseDowns)
		rtab.AddRow("lease ups", ra.LeaseUps, rb.LeaseUps, rb.LeaseUps-ra.LeaseUps)
		fmt.Print(rtab)
	}
	return nil
}

func deltaRounds(a, b int64) string {
	if a < 0 || b < 0 {
		return "n/a"
	}
	return fmt.Sprintf("%+d", b-a)
}

// deltaTable lines two per-kind totals up side by side, one row per kind
// in either, sorted by kind.
func deltaTable(a, b []trace.KindTotal) *metrics.Table {
	kinds := map[string][2]int64{}
	for side, totals := range [2][]trace.KindTotal{a, b} {
		for _, kt := range totals {
			v := kinds[kt.Kind]
			v[side] = kt.Count
			kinds[kt.Kind] = v
		}
	}
	names := make([]string, 0, len(kinds))
	for k := range kinds {
		names = append(names, k)
	}
	sort.Strings(names)
	tab := metrics.NewTable("kind", "A", "B", "delta (B-A)")
	for _, kind := range names {
		v := kinds[kind]
		tab.AddRow(kind, v[0], v[1], v[1]-v[0])
	}
	return tab
}

func cmdTimeline(args []string) error {
	fs := flag.NewFlagSet("tracectl timeline", flag.ExitOnError)
	node := fs.Uint64("node", 0, "only events where this id is the acting node or peer")
	hasNode := false
	typ := fs.String("type", "", "only events of this type (e.g. msg-send, probe)")
	from := fs.Int64("from", 0, "only events with T >= from")
	to := fs.Int64("to", -1, "only events with T <= to (-1: unbounded)")
	limit := fs.Int("limit", 0, "stop after printing this many events (0: all)")
	fs.Parse(args)
	fs.Visit(func(f *flag.Flag) {
		if f.Name == "node" {
			hasNode = true
		}
	})
	if fs.NArg() != 1 {
		return fmt.Errorf("timeline: want exactly one trace file, got %d", fs.NArg())
	}
	var wantType trace.EventType
	if *typ != "" {
		t, ok := trace.ParseEventType(*typ)
		if !ok {
			return fmt.Errorf("timeline: unknown event type %q", *typ)
		}
		wantType = t
	}

	r, err := openTrace(fs.Arg(0))
	if err != nil {
		return err
	}
	defer r.Close()
	sc := trace.NewScanner(r)
	printed := 0
	for sc.Scan() {
		e := sc.Event()
		if *typ != "" && e.Type != wantType {
			continue
		}
		if hasNode && e.Node != ids.ID(*node) && e.Peer != ids.ID(*node) {
			continue
		}
		if e.T < *from || (*to >= 0 && e.T > *to) {
			continue
		}
		fmt.Println(e)
		printed++
		if *limit > 0 && printed >= *limit {
			break
		}
	}
	if err := sc.Err(); err != nil {
		fmt.Fprintf(os.Stderr, "tracectl: warning: %v (printed the complete prefix)\n", err)
	}
	fmt.Fprintf(os.Stderr, "%d events matched (%d scanned)\n", printed, sc.Count())
	return nil
}
