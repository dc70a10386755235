package exp

// This file is the harness half of cmd/ssrsim's command line: BindCLI
// defines the flags that configure the harness itself (topology, sizes,
// seeds, output format, round executor, transport, the observability
// stack) on the tool's FlagSet, and CLI carries the accessors (size-list
// parsing, setup into a Harness, report emission). Flags that belong to
// single modes stay in the tool, bound on the same FlagSet before Parse.

import (
	"flag"
	"fmt"
	"io"
	"strconv"
	"strings"

	"repro/internal/graph"
	"repro/internal/sim"
)

// CLIOptions parameterize the flag defaults.
type CLIOptions struct {
	Modes        string // help text for -mode
	DefaultMode  string
	DefaultSizes string // default for -sizes
	DefaultN     int    // default for -n
}

// CLI holds the parsed harness flags.
type CLI struct {
	Mode  *string
	Topo  *string
	N     *int
	Sizes *string
	Seeds *int
	Seed  *int64
	CSV   *bool
	// Workers/Shards/Partition configure the round executor: -workers 0
	// uses GOMAXPROCS goroutines; -shards 0 picks sim.DefaultShards;
	// -partition names the shard-assignment policy
	// (sim.PartitionPolicies).
	Workers   *int
	Shards    *int
	Partition *string
	// Transport selects what every message-level mode runs its protocols
	// over: the raw lossy network or the reliable-delivery sublayer
	// (internal/rel). -mode reliability compares the two and ignores it.
	Transport *string

	traceFile  *string
	traceLevel *string
	pprofAddr  *string
	listenAddr *string
}

// BindCLI defines the shared flags on fs and returns their container.
// Call fs.Parse (or flag.Parse for the command-line set) afterwards.
func BindCLI(fs *flag.FlagSet, opt CLIOptions) *CLI {
	if opt.DefaultN == 0 {
		opt.DefaultN = 24
	}
	c := &CLI{
		Mode:    fs.String("mode", opt.DefaultMode, opt.Modes),
		Topo:    fs.String("topo", string(graph.TopoER), "physical topology"),
		N:       fs.Int("n", opt.DefaultN, "network size for single-size modes"),
		Sizes:   fs.String("sizes", opt.DefaultSizes, "comma-separated network sizes for sweep modes"),
		Seeds:   fs.Int("seeds", 3, "independent runs per configuration"),
		Seed:    fs.Int64("seed", 1, "seed for single-run modes"),
		CSV:     fs.Bool("csv", false, "emit the result table as CSV instead of aligned text"),
		Workers: fs.Int("workers", 0, "worker pool of the round executor (0 = GOMAXPROCS); never changes the result"),
		Shards:  fs.Int("shards", 0, "shard count of the round executor (0 = auto-scale with n)"),
		Partition: fs.String("partition", "contiguous",
			"shard-assignment policy of the round executor: "+strings.Join(sim.PartitionPolicies(), " | ")),
		Transport: fs.String("transport", TransportRaw,
			"protocol transport: raw | reliable (sequence numbers, adaptive retransmission, lease failure detector)"),

		traceFile:  fs.String("trace", "", "write a JSONL event trace of the run to this file"),
		traceLevel: fs.String("trace-level", "round", "trace granularity: off | round | msg"),
		pprofAddr:  fs.String("pprof", "", "serve net/http/pprof on this address (e.g. localhost:6060)"),
		listenAddr: fs.String("listen", "", "serve live telemetry (/metrics, /healthz, /probe) on this address (e.g. :9090)"),
	}
	return c
}

// Setup validates -partition and -transport, starts the observability
// stack (SetupObservability) and returns the Harness the flags describe.
// The returned cleanup is always non-nil and must run before exit to flush
// traces; its error is a trace that did not reach its file whole.
func (c *CLI) Setup() (Harness, func() error, error) {
	noop := func() error { return nil }
	if _, err := sim.NewPartitioner(*c.Partition); err != nil {
		return Harness{}, noop, err
	}
	if t := *c.Transport; t != "" && t != TransportRaw && t != TransportReliable {
		return Harness{}, noop, fmt.Errorf("unknown transport %q (want %s or %s)", t, TransportRaw, TransportReliable)
	}
	tr, cleanup, err := SetupObservability(*c.traceFile, *c.traceLevel, *c.pprofAddr, *c.listenAddr)
	exec := sim.ExecutorConfig{Workers: *c.Workers, Shards: *c.Shards, Partition: *c.Partition}
	return Harness{Tracer: tr, Transport: *c.Transport, Exec: exec}, cleanup, err
}

// Topology returns the -topo flag as a graph.Topology.
func (c *CLI) Topology() graph.Topology { return graph.Topology(*c.Topo) }

// SizeList parses the -sizes flag into positive integers.
func (c *CLI) SizeList() ([]int, error) {
	return ParseSizes(*c.Sizes)
}

// ParseSizes parses a comma-separated list of positive sizes.
func ParseSizes(s string) ([]int, error) {
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

// Emit writes a report to w as text or CSV per the -csv flag.
func (c *CLI) Emit(w io.Writer, r Report) {
	if *c.CSV {
		fmt.Fprint(w, r.CSV())
		return
	}
	fmt.Fprintln(w, r)
}
