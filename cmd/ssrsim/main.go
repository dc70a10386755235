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
// event trace, -listen ADDR serves live /metrics (OpenMetrics), /healthz
// and /probe while the run is in flight, -pprof ADDR serves net/http/pprof.
package main

import (
	"errors"
	"flag"
	"fmt"
	"os"
	"strings"

	"repro/internal/exp"
)

// ctx is what a mode's run func sees: the shared flags plus ssrsim's own.
type ctx struct {
	*exp.CLI
	set map[string]bool // flags given on the command line

	pairs, kill, probeEvery, fig *int
	proto, out                   *string
	quick                        *bool
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
	return func(c *ctx) error { c.Emit(f(c)); return nil }
}

func sweep(f func(c *ctx, sizes []int) exp.Report) func(*ctx) error {
	return func(c *ctx) error {
		sizes, err := c.SizeList()
		if err == nil {
			c.Emit(f(c, sizes))
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
	c.Emit(rep)
	fmt.Fprintf(os.Stderr, "ssrsim: wrote %s\n", path)
	if !met {
		return errCriteria
	}
	return nil
}

var modes = []mode{
	{"figures", "E1-E3", "the paper's Figs. 1-3 as executable scenarios (-fig 1|2|3, 0 = all)", msgModel, figures},
	{"powerlaw", "E4", "LSN on α=2 power-law graphs: rounds vs the paper's bound", roundModel,
		sweep(func(c *ctx, sizes []int) exp.Report { return exp.PowerLawConvergence(sizes, *c.Seeds) })},
	{"shape", "E5", "convergence shape and growth exponent per variant", roundModel,
		sweep(func(c *ctx, sizes []int) exp.Report { return exp.ConvergenceShape(sizes, c.Topology(), *c.Seeds) })},
	{"state", "E8", "per-node state: memory vs LSN", roundModel,
		sweep(func(c *ctx, sizes []int) exp.Report { return exp.StateSize(sizes, *c.Seeds) })},
	{"stabilize", "E9", "recovery after perturbation", roundModel,
		one(func(c *ctx) exp.Report { return exp.SelfStabilization(*c.N, 4, *c.Seeds) })},
	{"scheduler", "A1", "synchronous vs random-sequential daemon", roundModel,
		one(func(c *ctx) exp.Report { return exp.SchedulerAblation(*c.N, *c.Seeds) })},
	{"degree", "B1", "rounds vs initial degree", roundModel,
		one(func(c *ctx) exp.Report { return exp.DegreeSweep(*c.N, []int{3, 4, 6, 8, 12}, *c.Seeds) })},
	{"diameter", "B2", "rounds vs topology diameter", roundModel,
		one(func(c *ctx) exp.Report { return exp.DiameterSweep(*c.N, *c.Seeds) })},
	{"compare", "E6", "ISPRP+flood vs linearization message cost", msgModel,
		sweep(func(c *ctx, sizes []int) exp.Report { return exp.MessageCost(sizes, c.Topology(), *c.Seeds) })},
	{"breakdown", "E6b", "per-kind message mix of one bootstrap", msgModel,
		one(func(c *ctx) exp.Report { return exp.MessageBreakdown(*c.N, c.Topology(), *c.Seed) })},
	{"boot", "E6c", "one traced bootstrap run of -proto", msgModel, func(c *ctx) error {
		rep, err := exp.Bootstrap(*c.proto, *c.N, c.Topology(), *c.Seed, *c.probeEvery)
		if err == nil {
			c.Emit(rep)
		}
		return err
	}},
	{"route", "E7", "routing success and stretch over -pairs pairs", msgModel,
		one(func(c *ctx) exp.Report { return exp.Routing(*c.N, c.Topology(), *c.pairs, *c.Seed) })},
	{"occupancy", "E8b", "cache interval occupancy", msgModel,
		one(func(c *ctx) exp.Report { return exp.CacheOccupancy(*c.N, c.Topology(), *c.Seed) })},
	{"churn", "E9b", "recovery after failing -kill nodes", msgModel,
		one(func(c *ctx) exp.Report { return exp.ChurnRecovery(*c.N, c.Topology(), *c.kill, *c.Seed) })},
	{"closure", "E10", "ring closure: discovery redundancy", msgModel,
		one(func(c *ctx) exp.Report { return exp.RingClosure(*c.N, c.Topology(), *c.Seeds) })},
	{"vrr", "E11", "linearized VRR vs SSR", msgModel,
		one(func(c *ctx) exp.Report { return exp.VRRBootstrap(*c.N, c.Topology(), *c.Seeds) })},
	{"mobility", "E12", "SSR under random-waypoint mobility", msgModel,
		one(func(c *ctx) exp.Report { return exp.MobilityRecovery(*c.N, 1500, 0.02, *c.Seeds) })},
	{"loopy", "E1b", "scaled loopy states", msgModel,
		one(func(c *ctx) exp.Report { return exp.ScaledLoopy([]int{15, 63, 255}, 2, *c.Seed) })},
	{"teardown", "A2", "§4 edge teardown on/off", msgModel,
		one(func(c *ctx) exp.Report { return exp.TeardownAblation(*c.N, c.Topology(), *c.Seeds) })},
	{"chaos", "E16", "fault-scenario suite over every protocol, invariants checked online", msgModel, func(c *ctx) error {
		rep, res, err := exp.ChaosBench(*c.N, c.Topology(), *c.Seed, *c.quick)
		return bench(c, "results/BENCH_chaos.json", rep, res, res.Criteria.Met, err)
	}},
	{"reliability", "E17", "cold-start loss sweep, raw vs reliable transport", msgModel, func(c *ctx) error {
		rep, res, err := exp.ReliabilityBench(*c.N, c.Topology(), *c.Seed, *c.quick)
		return bench(c, "results/BENCH_reliability.json", rep, res, res.Criteria.Met, err)
	}},
}

func figures(c *ctx) error {
	figs := []func() exp.Report{
		func() exp.Report { return exp.Fig1Loopy(*c.Seed) },
		func() exp.Report { return exp.Fig2SeparateRings(*c.Seed) },
		exp.Fig3Trace,
		exp.Fig3ClosedRing, // the second half of Fig. 3; printed with -fig 0 only
	}
	switch {
	case *c.fig == 0:
	case *c.fig >= 1 && *c.fig <= 3:
		figs = figs[*c.fig-1 : *c.fig]
	default:
		return fmt.Errorf("unknown figure %d (want 1, 2, 3 or 0)", *c.fig)
	}
	for _, f := range figs {
		fmt.Println(f())
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
func run(args []string) (status int) {
	fs := flag.NewFlagSet("ssrsim", flag.ContinueOnError)
	c := &ctx{
		CLI:        exp.BindCLI(fs, exp.CLIOptions{Modes: modeHelp(), DefaultMode: "compare", DefaultSizes: msgModel.sizes, DefaultN: msgModel.n}),
		set:        map[string]bool{},
		fig:        fs.Int("fig", 0, "figure for -mode figures (1, 2, 3; 0 = all)"),
		pairs:      fs.Int("pairs", 200, "routed pairs for -mode route (0 = all)"),
		kill:       fs.Int("kill", 3, "nodes to fail for -mode churn"),
		proto:      fs.String("proto", "linearization", "protocol for -mode boot: "+strings.Join(exp.ProtocolNames(), " | ")),
		probeEvery: fs.Int("probe-every", 16, "convergence-probe sampling interval in ticks for -mode boot"),
		out:        fs.String("out", "", "JSON output path for -mode chaos / reliability (default results/BENCH_<mode>.json)"),
		quick:      fs.Bool("quick", false, "shrink -mode chaos/reliability to a fast smoke run"),
	}
	if err := fs.Parse(args); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return 0
		}
		return 2
	}
	fail := func(err error) int {
		fmt.Fprintln(os.Stderr, "ssrsim:", err)
		return 2
	}
	m := findMode(*c.Mode)
	if m == nil {
		return fail(fmt.Errorf("unknown mode %q (see ssrsim -h)", *c.Mode))
	}
	fs.Visit(func(f *flag.Flag) { c.set[f.Name] = true })
	if !c.set["n"] {
		*c.N = m.n
	}
	if !c.set["sizes"] {
		*c.Sizes = m.sizes
	}

	cleanup, err := c.Setup()
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
		fmt.Fprintf(os.Stderr, "ssrsim: %s %v\n", m.name, err)
		return 1
	case err != nil:
		return fail(err)
	}
	return 0
}

func main() { os.Exit(run(os.Args[1:])) }
