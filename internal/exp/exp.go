// Package exp implements the paper's experiments: each function reproduces
// one figure or quantitative claim (see DESIGN.md's per-experiment index)
// and returns a Report with the same rows/series the paper's evaluation
// would print. The cmd/ tools and the root benchmark suite are thin
// wrappers around this package.
package exp

import (
	"fmt"
	"strings"

	"repro/internal/graph"
	"repro/internal/linearize"
	"repro/internal/metrics"
	"repro/internal/sim"
	"repro/internal/trace"
)

// tracer, when set via EnableTracing, is attached to every network, engine
// and linearization run the harnesses create, so the cmd/ tools' -trace
// flag sees the whole stack without threading a handle through every
// experiment signature.
var tracer trace.Tracer

// EnableTracing installs the harness-wide tracer (nil disables). Callers
// own level filtering: pass trace.WithLevel(sink, level).
func EnableTracing(tr trace.Tracer) { tracer = tr }

// Transport names for SetTransport / the -transport flag.
const (
	TransportRaw      = "raw"
	TransportReliable = "reliable"
)

// transportName, when set via SetTransport, wraps every network the
// protocol harnesses create in the reliable-delivery sublayer
// (internal/rel) — the same harness-wide pattern as the tracer, so the
// cmd/ tools' -transport flag reaches every bootstrap run.
var transportName = TransportRaw

// SetTransport selects the harness-wide transport: "raw" (or "") keeps
// protocols directly on the lossy physical network, "reliable" interposes
// the retransmitting sublayer.
func SetTransport(name string) error {
	switch name {
	case "", TransportRaw:
		transportName = TransportRaw
	case TransportReliable:
		transportName = TransportReliable
	default:
		return fmt.Errorf("unknown transport %q (want %s or %s)", name, TransportRaw, TransportReliable)
	}
	return nil
}

// defaultExec, when set via SetExecutor, configures the round executor
// (pool width, partition size, partition policy) for every linearization
// run the harnesses create — the same harness-wide pattern as the tracer,
// so the cmd/ tools' -workers/-shards/-partition flags reach every
// experiment.
var defaultExec sim.ExecutorConfig

// SetExecutor installs the harness-wide round-executor configuration.
// Experiments that configure an executor themselves are left alone.
func SetExecutor(cfg sim.ExecutorConfig) {
	defaultExec = cfg
}

// runLin runs one linearization experiment with the harness tracer and
// executor configuration attached.
func runLin(g *graph.Graph, cfg linearize.Config) (linearize.Stats, *graph.Graph) {
	cfg.Tracer = tracer
	if cfg.Executor == (sim.ExecutorConfig{}) {
		cfg.Executor = defaultExec
	}
	return linearize.Run(g, cfg)
}

// Report is one experiment's rendered outcome.
type Report struct {
	ID    string // experiment id, e.g. "E4"
	Title string
	Table *metrics.Table
	Notes []string
	Text  string // free-form rendered content (traces, figures)
}

// CSV renders the report's table as comma-separated values (empty when the
// report has no table).
func (r Report) CSV() string {
	if r.Table == nil {
		return ""
	}
	return r.Table.CSV()
}

// String renders the report for terminals and logs.
func (r Report) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "== %s: %s ==\n", r.ID, r.Title)
	if r.Table != nil {
		b.WriteString(r.Table.String())
	}
	if r.Text != "" {
		b.WriteString(r.Text)
		if !strings.HasSuffix(r.Text, "\n") {
			b.WriteString("\n")
		}
	}
	for _, n := range r.Notes {
		fmt.Fprintf(&b, "note: %s\n", n)
	}
	return b.String()
}
