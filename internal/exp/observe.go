package exp

import (
	"fmt"
	"os"

	"repro/internal/trace"
)

// SetupObservability wires the cmd/ tools' -trace/-trace-level flags: a
// JSONL event trace of every simulation the harness runs, which tracectl
// reads offline. It returns the tracer for Harness.Tracer; with traceFile
// empty that tracer is nil and every emission site keeps its zero-cost
// nil-guard path.
//
// The returned cleanup is always non-nil. It flushes and closes the trace
// file and returns the first error the file hit over the whole run (write,
// flush or close): a truncated trace must not pass for a successful run.
func SetupObservability(traceFile, traceLevel string) (trace.Tracer, func() error, error) {
	noop := func() error { return nil }
	if traceFile == "" {
		return nil, noop, nil
	}
	level, ok := trace.ParseLevel(traceLevel)
	if !ok {
		return nil, noop, fmt.Errorf("bad -trace-level %q (want off|round|msg)", traceLevel)
	}
	f, err := os.Create(traceFile)
	if err != nil {
		return nil, noop, fmt.Errorf("-trace: %w", err)
	}
	w := trace.NewJSONLWriter(f)
	cleanup := func() error {
		if err := w.Close(); err != nil {
			return fmt.Errorf("-trace %s: %w", traceFile, err)
		}
		return nil
	}
	return trace.WithLevel(w, level), cleanup, nil
}
