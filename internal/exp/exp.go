// Package exp implements the paper's experiments: each Harness method
// reproduces one figure or quantitative claim (see DESIGN.md's
// per-experiment index) and returns a Report with the same rows/series
// the paper's evaluation would print. cmd/ssrsim is a thin wrapper around
// this package.
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

// Harness is what every experiment runs under, and every experiment and
// run builder is a method on it, so the cmd/ tools' flags reach the whole
// stack. Its zero value is the default: no tracer, the raw transport, the
// default round executor.
type Harness struct {
	// Tracer goes to every engine and network (newEngine, netOn) and every
	// round-model run (runLin); callers filter levels (trace.WithLevel).
	Tracer trace.Tracer
	// Transport is what netOn starts every protocol over: TransportRaw
	// ("" too) or TransportReliable, the retransmitting sublayer
	// (internal/rel). ReliabilityBench builds both transports itself.
	Transport string
	// Exec configures the round executor (pool width, partition size,
	// partition policy) of every runLin run.
	Exec sim.ExecutorConfig
}

// Transport names for Harness.Transport / the -transport flag.
const (
	TransportRaw      = "raw"
	TransportReliable = "reliable"
)

// transport is h.Transport with "" spelled out.
func (h Harness) transport() string {
	if h.Transport == "" {
		return TransportRaw
	}
	return h.Transport
}

// runLin is the one way to a round-model run: the harness tracer and
// executor configuration attached.
func (h Harness) runLin(g *graph.Graph, cfg linearize.Config) (linearize.Stats, *graph.Graph) {
	cfg.Tracer, cfg.Executor = h.Tracer, h.Exec
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
