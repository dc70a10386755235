// Package exp implements the paper's experiments: each function reproduces
// one figure or quantitative claim (see DESIGN.md's per-experiment index)
// and returns a Report with the same rows/series the paper's evaluation
// would print. cmd/ssrsim is a thin wrapper around this package.
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

// tracer, when set via EnableTracing, is attached to every engine and
// network (newEngine, netOn) and every linearization run (runLin) the
// harnesses create, so the cmd/ tools' -trace flag sees the whole stack
// without threading a handle through every experiment signature.
var tracer trace.Tracer

// EnableTracing installs the harness-wide tracer (nil disables). Callers
// own level filtering: pass trace.WithLevel(sink, level).
func EnableTracing(tr trace.Tracer) { tracer = tr }

// Transport names for SetTransport / the -transport flag.
const (
	TransportRaw      = "raw"
	TransportReliable = "reliable"
)

// transportName is what netOn, the one network constructor, starts every
// protocol over: the -transport flag holds for every message-level mode.
// ReliabilityBench alone builds both transports itself.
var transportName = TransportRaw

// SetTransport selects the harness-wide transport: "raw" (or "") keeps
// protocols directly on the lossy physical network, "reliable" interposes
// the retransmitting sublayer (internal/rel).
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

// defaultExec configures the round executor (pool width, partition size,
// partition policy) of every run that goes through runLin: the
// -workers/-shards/-partition flags hold for every round-model mode.
var defaultExec sim.ExecutorConfig

// SetExecutor installs the harness-wide round-executor configuration.
func SetExecutor(cfg sim.ExecutorConfig) { defaultExec = cfg }

// runLin is the one way to a round-model run: the harness tracer and
// executor configuration attached.
func runLin(g *graph.Graph, cfg linearize.Config) (linearize.Stats, *graph.Graph) {
	cfg.Tracer, cfg.Executor = tracer, defaultExec
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
