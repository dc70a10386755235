package exp

import (
	"context"
	"fmt"
	"net"
	"net/http"
	httppprof "net/http/pprof"
	"os"
	"time"

	"repro/internal/telemetry"
	"repro/internal/trace"
)

// pprofMux builds an explicit mux carrying the standard pprof endpoints.
// Registering on our own mux instead of importing the net/http/pprof side
// effect keeps the handlers off http.DefaultServeMux, where any other
// library's ListenAndServe would expose them by accident.
func pprofMux() *http.ServeMux {
	mux := http.NewServeMux()
	mux.HandleFunc("/debug/pprof/", httppprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", httppprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", httppprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", httppprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", httppprof.Trace)
	return mux
}

// SetupObservability wires the cmd/ tools' observability flags: -trace/
// -trace-level (a JSONL event trace of every simulation the harness runs),
// -pprof (the standard net/http/pprof endpoints) and -listen (the live
// telemetry server: /metrics in OpenMetrics text format, /healthz, /probe).
// It returns the tracer for Harness.Tracer. Empty flags disable their
// features; with all empty that tracer is nil and every emission site
// keeps its zero-cost nil-guard path.
//
// Every server's lifecycle is owned here: bind errors surface to the
// caller as errors (not stderr noise from a background goroutine), and the
// returned cleanup — always non-nil — flushes the trace file and shuts
// both HTTP servers down gracefully. It returns the first error the trace
// file hit over the whole run (write, flush or close): a truncated trace
// must not pass for a successful run. Server shutdown problems only go to
// stderr.
func SetupObservability(traceFile, traceLevel, pprofAddr, listenAddr string) (trace.Tracer, func() error, error) {
	// cleanup grows by one step per resource opened, newest first; every
	// error return below runs what has accumulated so far.
	cleanup := func() {}
	onCleanup := func(step func()) {
		prev := cleanup
		cleanup = func() { step(); prev() }
	}
	fail := func(err error) (trace.Tracer, func() error, error) {
		cleanup()
		return nil, func() error { return nil }, err
	}

	if pprofAddr != "" {
		lis, err := net.Listen("tcp", pprofAddr)
		if err != nil {
			return fail(fmt.Errorf("-pprof: %w", err))
		}
		pprofSrv := &http.Server{Handler: pprofMux()}
		go func() {
			if err := pprofSrv.Serve(lis); err != nil && err != http.ErrServerClosed {
				fmt.Fprintln(os.Stderr, "pprof:", err)
			}
		}()
		fmt.Fprintf(os.Stderr, "pprof: serving /debug/pprof on http://%s\n", lis.Addr())
		onCleanup(func() {
			ctx, cancel := context.WithTimeout(context.Background(), 2*time.Second)
			defer cancel()
			if err := pprofSrv.Shutdown(ctx); err != nil {
				fmt.Fprintln(os.Stderr, "pprof shutdown:", err)
			}
			lis.Close() // Shutdown misses a listener Serve has not registered yet
		})
	}

	var live trace.Tracer // stays a nil interface when -listen is unset, so Tee drops it
	if listenAddr != "" {
		telem := telemetry.NewServer()
		bound, err := telem.Start(listenAddr)
		if err != nil {
			return fail(err)
		}
		fmt.Fprintf(os.Stderr, "telemetry: serving /metrics /healthz /probe on http://%s\n", bound)
		onCleanup(func() {
			if err := telem.Close(); err != nil {
				fmt.Fprintln(os.Stderr, "telemetry close:", err)
			}
		})
		live = telem.Tracer()
	}

	var file trace.Tracer
	var traceErr error
	if traceFile != "" {
		level, ok := trace.ParseLevel(traceLevel)
		if !ok {
			return fail(fmt.Errorf("bad -trace-level %q (want off|round|msg)", traceLevel))
		}
		f, err := os.Create(traceFile)
		if err != nil {
			return fail(fmt.Errorf("-trace: %w", err))
		}
		w := trace.NewJSONLWriter(f)
		onCleanup(func() {
			if err := w.Close(); err != nil {
				traceErr = fmt.Errorf("-trace %s: %w", traceFile, err)
			}
		})
		file = trace.WithLevel(w, level)
	}

	return trace.Tee(file, live), func() error { cleanup(); return traceErr }, nil
}
