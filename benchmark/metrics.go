package main

import (
	"math"
	"sort"
)

// metricDef declares one metric. The tables below are the single source of
// the names, units and directions: `-manifest` prints BENCHMARK.json from
// them and every run emits exactly these names.
type metricDef struct {
	name, unit string
	higher     bool    // higher is better
	bound      float64 // end-to-end only: tolerated relative worsening
	// exact marks a count that is a pure function of the input: two
	// repetitions on one input, and two runs on one seed, must agree on it
	// bit for bit. A run summarizes it over its first reps inputs only, so
	// that it does not depend on how many inputs the machine got through.
	exact bool
}

// endToEnd are the metrics a user of the system sees. Every workload emits
// every one of them. Bounds were set from the spread between runs on ten
// seeds (README, "Bounds").
var endToEnd = []metricDef{
	{name: "setup_s", unit: "s", bound: 0.25},
	{name: "wall_s", unit: "s", bound: 0.25},
	{name: "peak_rss_mb", unit: "MB", bound: 0.20},
	{name: "alloc_mb", unit: "MB", bound: 0.20},
	{name: "sim_time", unit: "steps", bound: 0.20, exact: true},
	{name: "msgs_per_node", unit: "1/node", bound: 0.20, exact: true},
	// The share of the first reps inputs that reached consistency by the
	// deadline (repOut.stalled); set by the run, not per repetition.
	{name: "consistent_share", unit: "ratio", higher: true, bound: 0.25, exact: true},
}

// perLayer are the metrics of single layers, named after the packages. A
// metric that does not apply to a workload reads 0 there.
var perLayer = []metricDef{
	// graph
	{name: "graph.generate_s", unit: "s"},
	{name: "graph.csr.build_ns_edge", unit: "ns/edge"},
	{name: "graph.csr.with_edges_ns_edge", unit: "ns/edge"},
	{name: "graph.csr.has_edge_ns_op", unit: "ns/op"},
	{name: "graph.clone_s", unit: "s"},
	{name: "graph.adj.add_remove_ns_op", unit: "ns/op"},
	{name: "graph.csr.snapshot_delta_s", unit: "s"},
	{name: "graph.csr.snapshot_rebuild_s", unit: "s"},
	// linearize
	{name: "linearize.run_s", unit: "s"},
	{name: "linearize.round_s_p50", unit: "s"},
	{name: "linearize.round_s_max", unit: "s"},
	{name: "linearize.rounds", unit: "count"},
	{name: "linearize.edge_ops", unit: "count"},
	{name: "linearize.edge_ops_per_s", unit: "1/s", higher: true},
	{name: "linearize.peak_degree", unit: "count"},
	{name: "linearize.final_edges", unit: "count"},
	{name: "linearize.par_speedup", unit: "ratio", higher: true},
	{name: "linearize.legacy_wall_s", unit: "s"},
	// sim, sharded executor
	{name: "sim.shard.interior_activations", unit: "count"},
	{name: "sim.shard.wave_activations", unit: "count"},
	{name: "sim.shard.boundary_activations", unit: "count"},
	{name: "sim.shard.boundary_share", unit: "ratio"},
	{name: "sim.shard.prepare_s", unit: "s"},
	{name: "sim.shard.execute_s", unit: "s"},
	{name: "sim.shard.finish_s", unit: "s"},
	{name: "sim.shard.seq_share", unit: "ratio"},
	{name: "sim.shard.imbalance_mean", unit: "ratio"},
	{name: "sim.partition.wall_s.contiguous", unit: "s"},
	{name: "sim.partition.wall_s.degree-balanced", unit: "s"},
	{name: "sim.partition.wall_s.locality", unit: "s"},
	// sim, event engine
	{name: "sim.queue.ns_op.d1k", unit: "ns/op"},
	{name: "sim.queue.ns_op.d100k", unit: "ns/op"},
	{name: "sim.queue.cancel_ns_op", unit: "ns/op"},
	{name: "sim.events", unit: "count"},
	{name: "sim.events_per_s", unit: "1/s", higher: true},
	{name: "sim.residual_s", unit: "s"},
	// phys
	{name: "phys.send_ns_frame", unit: "ns/frame"},
	{name: "phys.broadcast_ns_frame", unit: "ns/frame"},
	{name: "phys.frames", unit: "count"},
	{name: "phys.drop_ratio", unit: "ratio"},
	{name: "phys.send_span_s", unit: "s"},
	// rel
	{name: "rel.send_ack_ns_frame", unit: "ns/frame"},
	{name: "rel.retransmit_ratio", unit: "ratio"},
	{name: "rel.wire_frames_per_send", unit: "ratio"},
	{name: "rel.abandons", unit: "count"},
	{name: "rel.heartbeats", unit: "count"},
	{name: "rel.send_span_s", unit: "s"},
	// cache, sroute
	{name: "cache.insert_ns_op", unit: "ns/op"},
	{name: "cache.nearest_ns_op", unit: "ns/op"},
	{name: "cache.neighbors_dir_ns_op", unit: "ns/op"},
	{name: "cache.best_toward_ns_op", unit: "ns/op"},
	{name: "cache.entries_mean", unit: "count"},
	{name: "cache.route_nodes_mean", unit: "count"},
	{name: "sroute.append_elide_ns_op", unit: "ns/op"},
	// ssr, isprp, vrr
	{name: "ssr.handler_self_s", unit: "s"},
	{name: "isprp.handler_self_s", unit: "s"},
	{name: "vrr.handler_self_s", unit: "s"},
	{name: "ssr.boot_wall_s", unit: "s"},
	{name: "ssr.route_wall_s", unit: "s"},
	{name: "isprp.wall_s", unit: "s"},
	{name: "vrr.wall_s", unit: "s"},
	{name: "ssr.oracle_s", unit: "s"},
	{name: "ssr.consistent_check_ms", unit: "ms"},
	{name: "route_pkts_per_s", unit: "pkt/s", higher: true},
	{name: "route_stretch_mean", unit: "ratio"},
	{name: "route_latency_ticks_p50", unit: "ticks"},
	{name: "route_latency_ticks_p99", unit: "ticks"},
	{name: "ssr.route_hops_mean", unit: "count"},
	{name: "ssr.route_segments_mean", unit: "count"},
	{name: "ssr.route_failed", unit: "count"},
	{name: "ssr.route_fingerprint_distinct", unit: "count"},
	// vring
	{name: "vring.analyze_line_ms", unit: "ms"},
	// trace
	{name: "trace.emit_ns_event.recorder", unit: "ns/event"},
	{name: "trace.emit_ns_event.stats", unit: "ns/event"},
	{name: "trace.emit_ns_event.jsonl", unit: "ns/event"},
	{name: "trace.events_per_run", unit: "count"},
	{name: "trace.bytes_per_event", unit: "B/event"},
	{name: "trace.jsonl_overhead_pct", unit: "%"},
	{name: "trace.stats_overhead_pct", unit: "%"},
	// Go runtime, over the measured section of one repetition
	{name: "go.gc_cycles", unit: "count"},
	{name: "go.gc_pause_total_ms", unit: "ms"},
	{name: "go.mallocs_per_step", unit: "1/step"},
	// the benchmark itself
	{name: "bench.span_overhead_pct", unit: "%"},
	{name: "bench.span_coverage_pct", unit: "%", higher: true},
	{name: "bench.reps", unit: "count", higher: true},
	{name: "bench.stalled_inputs", unit: "count"},
}

// values holds metric values by name; a metric never set reads 0.
type values map[string]float64

// samples collects one value per repetition for each metric.
type samples map[string][]float64

func (s samples) add(v values) {
	for k, x := range v {
		s[k] = append(s[k], x)
	}
}

// summarize reduces the repetitions to one value per declared metric, the
// midmean of its samples (of the first reps, for an exact metric).
func (s samples) summarize(defs []metricDef, reps int) values {
	out := values{}
	for _, d := range defs {
		xs := s[d.name]
		if d.exact {
			xs = xs[:min(reps, len(xs))]
		}
		out[d.name] = midmean(xs)
	}
	return out
}

// midmean is the mean of the middle half of xs: the lowest and the highest
// quarter are left out. It is the one summary of a run's repetitions. Like
// the median it ignores a noisy neighbour's slow repetitions and the
// deadline values of stalled inputs while they are few, and when they grow
// in number it moves up, as the median does; unlike the median it changes
// smoothly on counts that take few distinct values (sim_time comes in
// multiples of 8 ticks), so it is steadier from seed to seed and shows a
// small shift. 0 for an empty slice.
func midmean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := sorted(xs)
	k := len(s) / 4
	s = s[k : len(s)-k]
	sum := 0.0
	for _, x := range s {
		sum += x
	}
	return sum / float64(len(s))
}

// at reads a sorted slice at a fractional index, interpolating linearly
// and clamping at both ends.
func at(sorted []float64, pos float64) float64 {
	if pos <= 0 {
		return sorted[0]
	}
	lo := int(math.Floor(pos))
	if lo+1 >= len(sorted) {
		return sorted[len(sorted)-1]
	}
	return sorted[lo] + (pos-float64(lo))*(sorted[lo+1]-sorted[lo])
}

func sorted(xs []float64) []float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s
}

// quantile returns the q-quantile of xs by linear interpolation between
// order statistics; 0 for an empty slice.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	return at(sorted(xs), q*float64(len(xs)-1))
}

// quartileSpread is the distance between the first and third quartile as
// a share of the median, with the quartiles Python's
// statistics.quantiles(xs, n=4) gives (exclusive method: the p-quantile
// sits at 1-based position p*(n+1)), so that `-aa` reports the number the
// acceptance procedure computes.
func quartileSpread(xs []float64) float64 {
	s := sorted(xs)
	q := func(p float64) float64 { return at(s, p*float64(len(s)+1)-1) }
	if q(0.5) == 0 {
		return 0
	}
	return (q(0.75) - q(0.25)) / math.Abs(q(0.5))
}
