// Package telemetry serves live observability for a running simulation:
// an HTTP endpoint exposing the run's aggregates in OpenMetrics text format
// (/metrics), a liveness check (/healthz), and the latest convergence-probe
// sample as JSON (/probe). The cmd/ tools wire it behind a -listen flag, so
// a long-running MANET-churn bootstrap can be scraped by Prometheus or
// curled mid-run.
//
// The server holds one trace.Analysis — the same fold `tracectl report`
// runs over a trace file — and renders every endpoint from its accessors at
// scrape time. A number is available live iff it is available offline:
// there is no second store that could disagree with the trace. When -listen
// is unset nothing is constructed and the simulation keeps its nil-tracer
// fast path.
package telemetry

import (
	"context"
	"encoding/json"
	"fmt"
	"net"
	"net/http"
	"os"
	"strconv"
	"strings"
	"sync/atomic"
	"time"

	"repro/internal/metrics"
	"repro/internal/trace"
)

func scalar(v float64) []metrics.Sample { return []metrics.Sample{{Value: v}} }

// labeled renders one sample per map entry: {label="<key>"} value.
func labeled(label string, kv map[string]float64) []metrics.Sample {
	out := make([]metrics.Sample, 0, len(kv))
	for k, v := range kv {
		out = append(out, metrics.Sample{Labels: []string{label, k}, Value: v})
	}
	return out
}

// each renders one sample per item: {label="<key>"} value, both from kv.
func each[T any](label string, items []T, kv func(T) (string, float64)) []metrics.Sample {
	out := make([]metrics.Sample, len(items))
	for i, it := range items {
		k, v := kv(it)
		out[i] = metrics.Sample{Labels: []string{label, k}, Value: v}
	}
	return out
}

func fam(name, help, typ string, samples []metrics.Sample) metrics.Family {
	return metrics.Family{Name: name, Help: help, Type: typ, Samples: samples}
}

func totals(label string, ts []trace.KindTotal) []metrics.Sample {
	return each(label, ts, func(kt trace.KindTotal) (string, float64) { return kt.Kind, float64(kt.Count) })
}

// families is the export table: every series /metrics serves, read from the
// Analysis accessors at scrape time. Adding a series means adding an
// accessor first, which `tracectl` can print too.
func families(a *trace.Analysis) []metrics.Family {
	const nsPerSec = 1e9 // spans arrive in nanoseconds, OpenMetrics wants seconds
	const counter, gauge = metrics.Counter, metrics.Gauge
	perf, rel, invs := a.Perf(), a.Rel(), a.Invariants()
	gauges := map[string]float64{}
	for name, g := range a.Gauges() {
		gauges[name] = g.Last
	}
	var acts []metrics.Sample
	for _, sh := range perf.Shards {
		for phase, c := range sh.Activations {
			acts = append(acts, metrics.Sample{Labels: []string{"shard", strconv.Itoa(sh.Shard), "phase", phase}, Value: float64(c)})
		}
	}
	// No partition samples before the executor's first stamp, no RTO
	// envelope before the first RTT sample.
	var policyRounds, policyShards, rto map[string]float64
	if perf.Policy != "" {
		policyRounds = map[string]float64{perf.Policy: float64(perf.PolicyRounds)}
		policyShards = map[string]float64{perf.Policy: float64(perf.PolicyShards)}
	}
	if rel.RTOSamples > 0 {
		rto = map[string]float64{"min": rel.RTOMin, "max": rel.RTOMax, "last": rel.RTOLast}
	}
	return []metrics.Family{
		fam("ssr_trace_events", "trace events observed, by event type", counter, totals("ev", a.TypeCounts())),
		fam("ssr_trace_events_all", "trace events observed", counter, scalar(float64(a.Events()))),
		fam("ssr_messages_sent", "physical frames put on the air, by kind", counter, totals("kind", a.Taxonomy())),
		fam("ssr_messages_dropped", "physical frames lost, by reason", counter, totals("reason", a.DropTotals())),
		fam("ssr_node_messages_sent", "physical frames put on the air, by sending node", counter,
			each("node", a.TopSenders(0), func(nt trace.NodeTotal) (string, float64) { return nt.Node.String(), float64(nt.Count) })),
		fam("ssr_rounds", "synchronous rounds completed", counter, scalar(float64(a.Rounds()))),
		fam("ssr_probe", "latest convergence-probe reading, by metric", gauge, labeled("metric", a.Probes())),
		fam("ssr_gauge", "latest generic gauge reading, by metric", gauge, labeled("metric", gauges)),
		fam("ssr_shard_activations", "sharded-executor activations, by shard and phase", counter, acts),
		fam("ssr_partition_rounds", "consecutive rounds stamped with the current partition policy", counter, labeled("policy", policyRounds)),
		fam("ssr_partition_shards", "shard count of the latest partition stamp", gauge, labeled("policy", policyShards)),
		fam("ssr_invariant_checks", "chaos-harness invariant checks, by invariant", counter,
			each("invariant", invs, func(iv trace.InvariantReport) (string, float64) { return iv.Invariant, float64(iv.Checks) })),
		fam("ssr_invariant_violations", "chaos-harness invariant violations, by invariant", counter,
			each("invariant", invs, func(iv trace.InvariantReport) (string, float64) { return iv.Invariant, float64(iv.Violations) })),
		fam("ssr_retransmits", "reliable-sublayer retransmissions, by frame kind", counter, totals("kind", rel.Retransmits)),
		fam("ssr_rto_ticks", "adaptive RTO envelope across all links", gauge, labeled("stat", rto)),
		fam("ssr_lease_verdicts", "failure-detector verdicts, by direction", counter,
			labeled("verdict", map[string]float64{"down": float64(rel.LeaseDowns), "up": float64(rel.LeaseUps)})),
		fam("ssr_phase_seconds", "profiler wall time inside executor phases, by phase", counter,
			each("phase", perf.Spans, func(sp trace.SpanTotal) (string, float64) {
				return strings.TrimPrefix(sp.Name, "phase/"), sp.TotalNs / nsPerSec
			})),
		fam("ssr_shard_busy_seconds", "profiler per-shard busy time in the parallel phases, by shard", counter,
			each("shard", perf.Shards, func(sh trace.ShardPerf) (string, float64) { return strconv.Itoa(sh.Shard), sh.BusyNs / nsPerSec })),
		fam("ssr_shard_imbalance", "per-round load imbalance (max/mean shard busy): mean and worst round", gauge,
			labeled("stat", map[string]float64{"mean": perf.ImbalanceMean, "max": perf.ImbalanceMax})),
		fam("ssr_alloc_bytes", "profiler heap bytes allocated during rounds", counter, scalar(perf.AllocBytes)),
		fam("ssr_mallocs", "profiler heap objects allocated during rounds", counter, scalar(perf.Mallocs)),
		fam("ssr_gc_cycles", "profiler GC cycles completed during rounds", counter, scalar(perf.GCCycles)),
	}
}

// Server is the live telemetry endpoint. Create with NewServer, attach
// Tracer() to the simulation, then Start.
type Server struct {
	an      *trace.Analysis
	probeAt atomic.Int64 // wall clock (UnixNano) of the last probe event; 0: none yet
	started time.Time

	httpSrv *http.Server
	lis     net.Listener
}

// NewServer builds a server over a fresh analysis.
func NewServer() *Server {
	return &Server{an: trace.NewAnalysis(), started: time.Now()}
}

// Analysis exposes the fold every endpoint is rendered from.
func (s *Server) Analysis() *trace.Analysis { return s.an }

// Tracer returns the sink feeding this server. Tee it with the run's other
// sinks.
func (s *Server) Tracer() trace.Tracer { return s }

// Emit implements trace.Tracer: the fold is the Analysis's. The server adds
// the one thing a trace cannot carry, the wall-clock time of the last probe.
func (s *Server) Emit(e trace.Event) {
	if e.Type == trace.EvProbe {
		s.probeAt.Store(time.Now().UnixNano())
	}
	s.an.Emit(e)
}

// Handler returns the telemetry mux, also usable under a larger server.
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("/metrics", s.handleMetrics)
	mux.HandleFunc("/healthz", s.handleHealthz)
	mux.HandleFunc("/probe", s.handleProbe)
	return mux
}

func (s *Server) handleMetrics(w http.ResponseWriter, _ *http.Request) {
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	_ = metrics.WriteOpenMetrics(w, families(s.an))
}

func (s *Server) handleHealthz(w http.ResponseWriter, _ *http.Request) {
	w.Header().Set("Content-Type", "application/json")
	_ = json.NewEncoder(w).Encode(map[string]any{
		"status":    "ok",
		"uptime_s":  time.Since(s.started).Seconds(),
		"events":    s.an.Events(),
		"msgs_sent": s.an.TotalSent(),
	})
}

// probeResponse is the /probe JSON shape: the latest sample, the derived
// scalar the convergence claim is about, and the verdict over the whole
// probe series — the line `tracectl report` prints for the same events.
type probeResponse struct {
	Present    bool              `json:"present"`
	Sample     trace.ProbeSample `json:"sample,omitempty"`
	Distance   int               `json:"distance"`
	AgeSeconds float64           `json:"age_s"`
	Verdict    string            `json:"verdict"`
}

func (s *Server) handleProbe(w http.ResponseWriter, _ *http.Request) {
	sample, ok := s.an.LastProbe()
	resp := probeResponse{Present: ok, Sample: sample, Distance: sample.Distance(), Verdict: s.an.Verdict().String()}
	if at := s.probeAt.Load(); at != 0 {
		resp.AgeSeconds = time.Since(time.Unix(0, at)).Seconds()
	}
	w.Header().Set("Content-Type", "application/json")
	_ = json.NewEncoder(w).Encode(resp)
}

// Start binds addr (":0" picks a free port) and serves in a background
// goroutine. It returns the bound address, so callers can print a curlable
// URL even for ":0".
func (s *Server) Start(addr string) (string, error) {
	lis, err := net.Listen("tcp", addr)
	if err != nil {
		return "", fmt.Errorf("telemetry: %w", err)
	}
	s.lis = lis
	s.httpSrv = &http.Server{Handler: s.Handler()}
	go func() {
		if err := s.httpSrv.Serve(lis); err != nil && err != http.ErrServerClosed {
			fmt.Fprintln(os.Stderr, "telemetry:", err)
		}
	}()
	return lis.Addr().String(), nil
}

// Close shuts the HTTP server down, waiting briefly for in-flight scrapes.
func (s *Server) Close() error {
	if s.httpSrv == nil {
		return nil
	}
	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Second)
	defer cancel()
	err := s.httpSrv.Shutdown(ctx)
	s.lis.Close() // Shutdown misses a listener Serve has not registered yet
	return err
}
