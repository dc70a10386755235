// Command ssrsim runs every experiment of the reproduction: the paper's
// figures, the round-model convergence sweeps and the message-level
// protocol runs. `ssrsim -h` lists the modes (the table in this file is the
// only list), each with its EXPERIMENTS.md id and its default -n / -sizes:
//
//	ssrsim -mode figures -fig 1                # the loopy state, as ASCII
//	ssrsim -mode shape -topo er -sizes 100,200 # round-model sweep
//	ssrsim -mode boot -proto isprp -n 256      # one traced bootstrap run
//	ssrsim -mode chaos -quick -n 16            # fault-scenario suite -> JSON
//
// The chaos and reliability modes write a machine-readable record to -out
// (default results/BENCH_<mode>.json); -quick shrinks them to a CI smoke
// run, and they exit 1 when their criteria are not met.
//
// Observability: -trace FILE -trace-level {off|round|msg} writes a JSONL
// event trace, which tracectl reads after the run.
package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"strconv"
	"strings"

	"repro/internal/exp"
	"repro/internal/graph"
	"repro/internal/sim"
)

// ctx is what a mode's run func sees: the flags, their Harness, the writers.
type ctx struct {
	h              exp.Harness
	stdout, stderr io.Writer

	// The harness flags: every mode reads them.
	mode, topo, sizes     *string
	n, seeds              *int
	seed                  *int64
	csv                   *bool
	workers, shards       *int
	partition, transport  *string
	traceFile, traceLevel *string

	// The flags that belong to single modes.
	pairs, kill, probeEvery, fig *int
	proto, out                   *string
	quick                        *bool
}

// bind defines every flag on fs. -n and -sizes default to the
// message-level modes' values; run replaces them with the chosen mode's
// when the command line gives neither.
func bind(fs *flag.FlagSet) *ctx {
	return &ctx{
		mode:    fs.String("mode", "compare", modeHelp()),
		topo:    fs.String("topo", string(graph.TopoER), "physical topology"),
		n:       fs.Int("n", msgModel.n, "network size for single-size modes"),
		sizes:   fs.String("sizes", msgModel.sizes, "comma-separated network sizes for sweep modes"),
		seeds:   fs.Int("seeds", 3, "independent runs per configuration"),
		seed:    fs.Int64("seed", 1, "seed for single-run modes"),
		csv:     fs.Bool("csv", false, "emit the result table as CSV instead of aligned text"),
		workers: fs.Int("workers", 0, "worker pool of the round executor (0 = GOMAXPROCS); never changes the result"),
		shards:  fs.Int("shards", 0, "shard count of the round executor (0 = auto-scale with n)"),
		partition: fs.String("partition", "contiguous",
			"shard-assignment policy of the round executor: "+strings.Join(sim.PartitionPolicies(), " | ")),
		transport: fs.String("transport", exp.TransportRaw,
			"protocol transport: raw | reliable (sequence numbers, adaptive retransmission, lease failure detector)"),
		traceFile:  fs.String("trace", "", "write a JSONL event trace of the run to this file"),
		traceLevel: fs.String("trace-level", "round", "trace granularity: off | round | msg"),

		fig:        fs.Int("fig", 0, "figure for -mode figures (1, 2, 3; 0 = all)"),
		pairs:      fs.Int("pairs", 200, "routed pairs for -mode route (0 = all)"),
		kill:       fs.Int("kill", 3, "nodes to fail for -mode churn"),
		proto:      fs.String("proto", "linearization", "protocol for -mode boot: "+strings.Join(exp.ProtocolNames(), " | ")),
		probeEvery: fs.Int("probe-every", 16, "convergence-probe sampling interval in ticks for -mode boot"),
		out:        fs.String("out", "", "JSON output path for -mode chaos / reliability (default results/BENCH_<mode>.json)"),
		quick:      fs.Bool("quick", false, "shrink -mode chaos/reliability to a fast smoke run"),
	}
}

// setup validates -partition and -transport, opens the trace
// (exp.SetupObservability) and puts the Harness the flags describe in
// c.h. The returned cleanup is always non-nil and must run before exit to
// flush traces; its error is a trace that did not reach its file whole.
func (c *ctx) setup() (func() error, error) {
	noop := func() error { return nil }
	if _, err := sim.NewPartitioner(*c.partition); err != nil {
		return noop, err
	}
	if t := *c.transport; t != "" && t != exp.TransportRaw && t != exp.TransportReliable {
		return noop, fmt.Errorf("unknown transport %q (want %s or %s)", t, exp.TransportRaw, exp.TransportReliable)
	}
	tr, cleanup, err := exp.SetupObservability(*c.traceFile, *c.traceLevel)
	exec := sim.ExecutorConfig{Workers: *c.workers, Shards: *c.shards, Partition: *c.partition}
	c.h = exp.Harness{Tracer: tr, Transport: *c.transport, Exec: exec}
	return cleanup, err
}

// topology returns the -topo flag as a graph.Topology.
func (c *ctx) topology() graph.Topology { return graph.Topology(*c.topo) }

// parseSizes parses a comma-separated list of positive sizes (-sizes).
func parseSizes(s string) ([]int, error) {
	var out []int
	for _, part := range strings.Split(s, ",") {
		n, err := strconv.Atoi(strings.TrimSpace(part))
		if err != nil || n <= 0 {
			return nil, fmt.Errorf("bad size %q", part)
		}
		out = append(out, n)
	}
	return out, nil
}

// emit writes a report to stdout as text or CSV per the -csv flag.
func (c *ctx) emit(r exp.Report) {
	if *c.csv {
		fmt.Fprint(c.stdout, r.CSV())
		return
	}
	fmt.Fprintln(c.stdout, r)
}

// defaults are a mode's -n and -sizes when the command line gives none.
type defaults struct {
	n     int
	sizes string
}

var (
	msgModel   = defaults{24, "16,24,32"}         // message-level runs: every node is a simulated process
	roundModel = defaults{200, "100,200,400,800"} // round-model sweeps: cheap per node
)

// mode is one row of the mode table: the -mode name, the experiment id in
// EXPERIMENTS.md, a one-line description for -h, the mode's defaults and
// the function that runs it.
type mode struct {
	name, id, about string
	defaults
	run func(*ctx) error
}

// errCriteria is a bench mode's "ran, wrote its record, failed its own
// acceptance criteria": exit 1, where every other error exits 2.
var errCriteria = errors.New("criteria NOT met")

// one adapts an experiment that cannot fail; sweep one that runs over the
// -sizes list.
func one(f func(*ctx) exp.Report) func(*ctx) error {
	return func(c *ctx) error { c.emit(f(c)); return nil }
}

func sweep(f func(c *ctx, sizes []int) exp.Report) func(*ctx) error {
	return func(c *ctx) error {
		sizes, err := parseSizes(*c.sizes)
		if err == nil {
			c.emit(f(c, sizes))
		}
		return err
	}
}

// bench finishes a mode that writes a BENCH_*.json record: res goes to -out
// (or defaultOut), the report to stdout; met is the record's own verdict.
func bench(c *ctx, defaultOut string, rep exp.Report, res any, met bool, err error) error {
	if err != nil {
		return err
	}
	path := *c.out
	if path == "" {
		path = defaultOut
	}
	if err := exp.WriteBenchJSON(path, res); err != nil {
		return err
	}
	c.emit(rep)
	fmt.Fprintf(c.stderr, "ssrsim: wrote %s\n", path)
	if !met {
		return errCriteria
	}
	return nil
}

var modes = []mode{
	{"figures", "E1-E3", "the paper's Figs. 1-3 as executable scenarios (-fig 1|2|3, 0 = all)", msgModel, figures},
	{"powerlaw", "E4", "LSN on α=2 power-law graphs: rounds vs the paper's bound", roundModel,
		sweep(func(c *ctx, sizes []int) exp.Report { return c.h.PowerLawConvergence(sizes, *c.seeds) })},
	{"shape", "E5", "convergence shape and growth exponent per variant", roundModel,
		sweep(func(c *ctx, sizes []int) exp.Report { return c.h.ConvergenceShape(sizes, c.topology(), *c.seeds) })},
	{"state", "E8", "per-node state: memory vs LSN", roundModel,
		sweep(func(c *ctx, sizes []int) exp.Report { return c.h.StateSize(sizes, *c.seeds) })},
	{"stabilize", "E9", "recovery after perturbation", roundModel,
		one(func(c *ctx) exp.Report { return c.h.SelfStabilization(*c.n, 4, *c.seeds) })},
	{"scheduler", "A1", "synchronous vs random-sequential daemon", roundModel,
		one(func(c *ctx) exp.Report { return c.h.SchedulerAblation(*c.n, *c.seeds) })},
	{"degree", "B1", "rounds vs initial degree", roundModel,
		one(func(c *ctx) exp.Report { return c.h.DegreeSweep(*c.n, []int{3, 4, 6, 8, 12}, *c.seeds) })},
	{"diameter", "B2", "rounds vs topology diameter", roundModel,
		one(func(c *ctx) exp.Report { return c.h.DiameterSweep(*c.n, *c.seeds) })},
	{"compare", "E6", "ISPRP+flood vs linearization message cost", msgModel,
		sweep(func(c *ctx, sizes []int) exp.Report { return c.h.MessageCost(sizes, c.topology(), *c.seeds) })},
	{"breakdown", "E6b", "per-kind message mix of one bootstrap", msgModel,
		one(func(c *ctx) exp.Report { return c.h.MessageBreakdown(*c.n, c.topology(), *c.seed) })},
	{"boot", "E6c", "one traced bootstrap run of -proto", msgModel, func(c *ctx) error {
		rep, err := c.h.Bootstrap(*c.proto, *c.n, c.topology(), *c.seed, *c.probeEvery)
		if err == nil {
			c.emit(rep)
		}
		return err
	}},
	{"route", "E7", "routing success and stretch over -pairs pairs", msgModel,
		one(func(c *ctx) exp.Report { return c.h.Routing(*c.n, c.topology(), *c.pairs, *c.seed) })},
	{"occupancy", "E8b", "cache interval occupancy", msgModel,
		one(func(c *ctx) exp.Report { return c.h.CacheOccupancy(*c.n, c.topology(), *c.seed) })},
	{"churn", "E9b", "recovery after failing -kill nodes", msgModel,
		one(func(c *ctx) exp.Report { return c.h.ChurnRecovery(*c.n, c.topology(), *c.kill, *c.seed) })},
	{"closure", "E10", "ring closure: discovery redundancy", msgModel,
		one(func(c *ctx) exp.Report { return c.h.RingClosure(*c.n, c.topology(), *c.seeds) })},
	{"vrr", "E11", "linearized VRR vs SSR", msgModel,
		one(func(c *ctx) exp.Report { return c.h.VRRBootstrap(*c.n, c.topology(), *c.seeds) })},
	{"mobility", "E12", "SSR under random-waypoint mobility", msgModel,
		one(func(c *ctx) exp.Report { return c.h.MobilityRecovery(*c.n, 1500, 0.02, *c.seeds) })},
	{"loopy", "E1b", "scaled loopy states", msgModel,
		one(func(c *ctx) exp.Report { return c.h.ScaledLoopy([]int{15, 63, 255}, 2, *c.seed) })},
	{"teardown", "A2", "§4 edge teardown on/off", msgModel,
		one(func(c *ctx) exp.Report { return c.h.TeardownAblation(*c.n, c.topology(), *c.seeds) })},
	{"chaos", "E16", "fault-scenario suite over every protocol, invariants checked online", msgModel, func(c *ctx) error {
		rep, res, err := c.h.ChaosBench(*c.n, c.topology(), *c.seed, *c.quick)
		return bench(c, "results/BENCH_chaos.json", rep, res, res.Criteria.Met, err)
	}},
	{"reliability", "E17", "cold-start loss sweep, raw vs reliable transport", msgModel, func(c *ctx) error {
		rep, res, err := c.h.ReliabilityBench(*c.n, c.topology(), *c.seed, *c.quick)
		return bench(c, "results/BENCH_reliability.json", rep, res, res.Criteria.Met, err)
	}},
}

func figures(c *ctx) error {
	figs := []func() exp.Report{
		func() exp.Report { return c.h.Fig1Loopy(*c.seed) },
		func() exp.Report { return c.h.Fig2SeparateRings(*c.seed) },
		c.h.Fig3Trace,
		c.h.Fig3ClosedRing, // the second half of Fig. 3; printed with -fig 0 only
	}
	switch {
	case *c.fig == 0:
	case *c.fig >= 1 && *c.fig <= 3:
		figs = figs[*c.fig-1 : *c.fig]
	default:
		return fmt.Errorf("unknown figure %d (want 1, 2, 3 or 0)", *c.fig)
	}
	for _, f := range figs {
		c.emit(f())
	}
	return nil
}

// modeHelp renders the mode table as the -mode usage text.
func modeHelp() string {
	var b strings.Builder
	b.WriteString("experiment to run — name, EXPERIMENTS.md id, [-n / -sizes defaults where the mode has its own]:")
	for _, m := range modes {
		fmt.Fprintf(&b, "\n  %-12s %-6s %s", m.name, m.id, m.about)
		if m.defaults != msgModel {
			fmt.Fprintf(&b, " [-n %d -sizes %s]", m.n, m.sizes)
		}
	}
	return b.String()
}

func findMode(name string) *mode {
	for i := range modes {
		if modes[i].name == name {
			return &modes[i]
		}
	}
	return nil
}

// run is main without the process exit: parse args, set the harness up, run
// the mode, return the exit status: 2 for a usage, set-up or run error and
// for a trace that could not be written whole, 1 for unmet criteria.
func run(args []string, stdout, stderr io.Writer) (status int) {
	fs := flag.NewFlagSet("ssrsim", flag.ContinueOnError)
	fs.SetOutput(stderr)
	c := bind(fs)
	c.stdout, c.stderr = stdout, stderr
	if err := fs.Parse(args); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return 0
		}
		return 2
	}
	fail := func(err error) int {
		fmt.Fprintln(stderr, "ssrsim:", err)
		return 2
	}
	m := findMode(*c.mode)
	if m == nil {
		return fail(fmt.Errorf("unknown mode %q (see ssrsim -h)", *c.mode))
	}
	set := map[string]bool{} // flags given on the command line
	fs.Visit(func(f *flag.Flag) { set[f.Name] = true })
	if !set["n"] {
		*c.n = m.n
	}
	if !set["sizes"] {
		*c.sizes = m.sizes
	}

	cleanup, err := c.setup()
	if err != nil {
		return fail(err)
	}
	// Flushes the trace on every path out. A trace that did not reach its
	// file whole is a failed run whatever the mode itself returned.
	defer func() {
		if err := cleanup(); err != nil {
			status = fail(err)
		}
	}()
	switch err := m.run(c); {
	case errors.Is(err, errCriteria):
		fmt.Fprintf(stderr, "ssrsim: %s %v\n", m.name, err)
		return 1
	case err != nil:
		return fail(err)
	}
	return 0
}

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }
