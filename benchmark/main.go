// Command benchmark is the repository's one layered benchmark: each
// workload takes a physical topology to an oracle-verified globally
// consistent ring (and, for SSR, routes packets on it), reports the
// end-to-end metrics of an untraced pass and the per-layer metrics of a
// separate traced pass, and checks its own outputs. README.md describes
// the workloads, the metrics and how they are expected to interact.
//
//	go run -C benchmark . --workload boot-ssr-route --seed 1 --seconds 15 --trace 0
//	go run -C benchmark . -seed 1            every workload, both passes
//	go run -C benchmark . -aa                two sets of runs of the same code, compared
//	go run -C benchmark . -manifest          print BENCHMARK.json
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"syscall"
	"time"

	"repro/internal/cache"
	"repro/internal/graph"
	"repro/internal/linearize"
)

// runSeconds is how long one run of one workload measures.
const runSeconds = 15

// ctx is what a repetition needs to know about the run it is part of.
type ctx struct {
	workers int           // W = min(nproc, 4): GOMAXPROCS and Executor.Workers
	tiny    bool          // -scale tiny: the smoke test's sizes
	micro   time.Duration // length of one micro loop
}

// size picks a workload's node count for the run's scale.
func (c *ctx) size(n, tinyN int) int {
	if c.tiny {
		return tinyN
	}
	return n
}

// repOut is the outcome of one repetition: its metric values, its checks,
// and the state the traced pass's micro loops run on.
type repOut struct {
	v                 values
	attempted, failed int
	notes             []string
	// stalled marks an input on which the protocol did not reach consistency
	// by its deadline (bootDeadline, linMaxRounds). VRR, SSR and LSN livelock
	// on some inputs at the commit that added this benchmark, so this is not
	// a failed operation. The input stays a sample of the end-to-end metrics
	// with what it cost up to the deadline, so that a change which turns
	// hard inputs into livelocks reads worse, not better, and it lowers
	// consistent_share. A run fails when half its inputs or more stall.
	stalled          bool
	routeFingerprint uint64
	final            *graph.Graph   // lin-*: the final virtual graph
	caches           []*cache.Cache // SSR: the nodes' caches at consistency
}

func newRepOut() *repOut { return &repOut{v: values{}} }

// check counts one verified operation and records a failure when !ok.
func (o *repOut) check(ok bool, format string, args ...any) bool {
	o.attempted++
	if !ok {
		o.failed++
		if len(o.notes) < 8 {
			o.notes = append(o.notes, fmt.Sprintf(format, args...))
		}
	}
	return ok
}

// spec is the part of a workload that differs between the round-model and
// the message-level workloads.
type spec interface {
	// rep runs one complete, independent repetition on the input of seed.
	// rec is nil on the untraced pass.
	rep(c *ctx, seed int64, rec *recorder) *repOut
	// extras makes the traced pass's one-off measurements on the input of
	// seed; last is that input's untraced repetition.
	extras(c *ctx, seed int64, last *repOut) *repOut
}

type workload struct {
	name, why string
	// reps is how many repetitions a run of runSeconds must hold, about
	// two thirds of what fits on two cores. The counts the program makes
	// (metricDef.exact) are summarized over exactly the first reps inputs,
	// so that they depend on the seed alone and not on how fast the machine
	// is; timings go on sampling until the time is up.
	reps int
	spec
}

// workloads are sized so that a run of runSeconds holds a few dozen
// repetitions on two cores; README.md gives the reasons for each.
var workloads = []workload{
	{
		name: "lin-lsn-powerlaw", reps: 16,
		why:  "linearize LSN on a power-law graph (the paper's E4): the in-place interior/boundary/wave path and sim.ShardedRunner do the work; power-law generation makes set-up a real cost",
		spec: linSpec{variant: linearize.LSN, topo: graph.TopoPowerLaw, n: 4000, tinyN: 64, closeRing: true, policies: true},
	}, {
		name: "lin-memory-regular", reps: 22,
		why:  "linearize Memory on a 4-regular graph: Jacobi snapshot-merge rounds, graph.CSR build/WithEdges and the allocator dominate; guards the variant that is slower in parallel",
		spec: linSpec{variant: linearize.Memory, topo: graph.TopoRegular, n: 6000, tinyN: 64},
	}, {
		name: "boot-ssr-route", reps: 22,
		why:  "SSR bootstrap on a unit-disk graph over the raw network, then packets routed on the ring: sim event queue, phys, ssr handlers, cache and sroute share the work; cache reads beside writes",
		spec: bootSpec{protos: []string{"ssr"}, topo: graph.TopoUnitDisk, n: 192, tinyN: 48, packets: 1024},
	}, {
		name: "boot-lossy", reps: 40,
		why:  "SSR bootstrap over rel (ARQ, RTO timers, heartbeats) at 15% frame loss: rel does most of the work and the event queue sees many scheduled-then-cancelled timers",
		spec: bootSpec{protos: []string{"ssr"}, topo: graph.TopoRegular, n: 96, tinyN: 32, loss: 0.15},
	}, {
		name: "boot-isprp-vrr", reps: 88,
		why:  "ISPRP with flooding (the paper's baseline) then VRR, raw network: bypasses ssr, the cache interval policy and rel, so a sim/phys gain shows here and an ssr gain does not",
		spec: bootSpec{protos: []string{"isprp", "vrr"}, topo: graph.TopoRegular, n: 64, tinyN: 32},
	}, {
		name: "boot-ssr-traced", reps: 38,
		why:  "SSR bootstrap with a full-level JSONL trace sink on engine, network and cluster: the only workload with a non-nil tracer, so a sink change moves this one alone",
		spec: bootSpec{protos: []string{"ssr"}, topo: graph.TopoUnitDisk, n: 128, tinyN: 48, sink: "jsonl"},
	},
}

func findWorkload(name string) (workload, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}

// subSeed derives the seed of repetition i from the run's seed. Every
// repetition gets its own input: the cost of a bootstrap varies by 10-30 %
// from one topology to the next, and a run that measured one topology
// would report that topology's luck. Runs with seeds below 2^40 share no
// input.
func subSeed(seed int64, i int) int64 { return seed<<20 + int64(i) }

// result is the last line of a run's standard output.
type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

func main() {
	var (
		wlName   = flag.String("workload", "", "run this workload only and print its result as the last line")
		seed     = flag.Int64("seed", 1, "seed of the inputs")
		seconds  = flag.Float64("seconds", runSeconds, "how long one run measures")
		traced   = flag.Int("trace", 0, "0: untraced pass, end-to-end metrics; 1: traced pass, per-layer metrics")
		scale    = flag.String("scale", "full", "full, or tiny for the smoke test's sizes")
		aa       = flag.Bool("aa", false, "run the untraced set (or with -workload, that one) twice in alternation and compare the two")
		manifest = flag.Bool("manifest", false, "print BENCHMARK.json and exit")
		outPath  = flag.String("out", "", "all-workloads mode: also write the results as JSON to this file")
	)
	flag.Parse()

	if *manifest {
		os.Stdout.Write(manifestJSON())
		return
	}
	c := &ctx{workers: min(runtime.NumCPU(), 4), tiny: *scale == "tiny", micro: 150 * time.Millisecond}
	if c.tiny {
		c.micro = time.Millisecond
	}
	runtime.GOMAXPROCS(c.workers)

	var only []workload
	if *wlName != "" {
		w, ok := findWorkload(*wlName)
		if !ok {
			fmt.Fprintf(os.Stderr, "unknown workload %q\n", *wlName)
			os.Exit(2)
		}
		only = []workload{w}
	}
	switch {
	case *aa:
		if only == nil {
			only = workloads
		}
		os.Exit(runAA(only, *seed, *seconds, *scale))
	case only != nil:
		res := runWorkload(c, only[0], *seed, *seconds, *traced == 1, os.Stdout)
		line, _ := json.Marshal(res) // a map of floats and strings cannot fail to encode
		fmt.Println(string(line))
		if res.Failed > 0 {
			os.Exit(1)
		}
	default:
		os.Exit(runAll(*seed, *seconds, *scale, *outPath))
	}
}

// run accumulates the checks of one run.
type run struct {
	c       *ctx
	w       workload
	seed    int64
	seconds float64
	start   time.Time
	res     result
}

func (r *run) left() float64 { return r.seconds - time.Since(r.start).Seconds() }

// rep runs repetition i of the run. It starts from a collected heap, as
// the first repetition of a process does: otherwise the garbage of one
// repetition is collected during the set-up of the next, at that one's
// cost.
func (r *run) rep(i int, rec *recorder) *repOut {
	runtime.GC()
	o := r.w.rep(r.c, subSeed(r.seed, i), rec)
	o.v["consistent_share"] = 1
	if o.stalled {
		o.v["consistent_share"] = 0
	}
	return o
}

// tally adds a repetition's checks to the run's counts.
func (r *run) tally(o *repOut) {
	r.res.Attempted += o.attempted
	r.res.Failed += o.failed
	for _, n := range o.notes {
		fmt.Fprintf(os.Stderr, "%s: FAILED: %s\n", r.w.name, n)
	}
}

// checkStalled fails the run when half of its inputs or more did not reach
// consistency (see repOut.stalled): the midmeans would then describe the
// deadline, not the protocol.
func (r *run) checkStalled(stalled, inputs int) {
	o := newRepOut()
	o.check(2*stalled < inputs, "%d of %d inputs not consistent by the deadline", stalled, inputs)
	r.tally(o)
}

// sameInput checks that two repetitions on one input agree, bit for bit,
// on the simulated time and the message count.
func sameInput(o, ref *repOut, what string) {
	for _, d := range endToEnd {
		if d.exact {
			o.check(o.v[d.name] == ref.v[d.name], "%s: %s is %v, was %v on the same input", what, d.name, o.v[d.name], ref.v[d.name])
		}
	}
}

// runWorkload is one run: repetitions of w on inputs derived from seed for
// the given time, summarized to one value per metric.
func runWorkload(c *ctx, w workload, seed int64, seconds float64, traced bool, listing io.Writer) result {
	r := &run{c: c, w: w, seed: seed, seconds: seconds, start: time.Now()}
	defs, sm := endToEnd, samples{}
	var v values
	if traced {
		defs = perLayer
		v = r.tracedPass(sm)
	} else {
		v = r.untracedPass(sm)
	}
	r.res.Correct = r.res.Failed == 0
	r.res.Metrics = map[string]metricValue{}
	for _, d := range defs {
		r.res.Metrics[d.name] = metricValue{Value: v[d.name], Unit: d.unit}
		xs := sm[d.name]
		fmt.Fprintf(listing, "%-20s %-38s %14.6g %-9s min %-12.6g max %-12.6g n %d\n",
			w.name, d.name, v[d.name], d.unit, quantile(xs, 0), quantile(xs, 1), len(xs))
	}
	return r.res
}

// untracedPass repeats the workload with every tracer nil, at least the
// workload's reps and until the time is up, and returns the end-to-end
// metrics.
func (r *run) untracedPass(sm samples) values {
	reps := max(3, int(float64(r.w.reps)*r.seconds/runSeconds))
	if r.c.tiny {
		reps = 1
	}
	var first *repOut
	var longest float64
	// 2*longest keeps room for the determinism re-run after the loop.
	for i := 0; i < reps || r.left() > 2*longest; i++ {
		t0 := time.Now()
		o := r.rep(i, nil)
		longest = max(longest, time.Since(t0).Seconds())
		r.tally(o)
		sm.add(o.v)
		if i == 0 {
			first = o
		}
	}
	again := r.rep(0, nil)
	sameInput(again, first, "re-run")
	r.tally(again)

	v := sm.summarize(endToEnd, reps)
	consistent := 0
	for _, x := range sm["consistent_share"][:reps] {
		consistent += int(x)
	}
	r.checkStalled(reps-consistent, reps)
	v["consistent_share"] = float64(consistent) / float64(reps)
	v["peak_rss_mb"] = peakRSSMB()
	return v
}

// tracedPass pairs an untraced and a traced repetition on each input, for
// up to half the time, then spends the rest on the one-off comparisons and
// micro loops of extras. Span-derived metrics come from the traced
// repetition, everything else from the untraced one.
func (r *run) tracedPass(sm samples) values {
	var first *repOut
	firstAt, stalled := 0, 0
	rec := &recorder{spans: make([]span, 0, 1<<20)}
	for i := 0; first == nil || r.left() > r.seconds/2; i++ {
		u := r.rep(i, nil)
		r.tally(u)
		// The layers are attributed on inputs that reach consistency; the
		// untraced pass is where a stalled input counts.
		if u.stalled {
			if stalled++; first == nil && stalled == 8 { // or the loop would not end
				r.checkStalled(stalled, stalled)
				return values{}
			}
			continue
		}
		rec.reset()
		t := r.rep(i, rec)
		sameInput(t, u, "traced pass")
		r.tally(t)

		pair := values{}
		for k, x := range t.v {
			pair[k] = x
		}
		for k, x := range u.v {
			pair[k] = x
		}
		pair["bench.span_overhead_pct"] = 100 * (t.v["wall_s"] - u.v["wall_s"]) / u.v["wall_s"]
		if u.routeFingerprint != 0 {
			pair["ssr.route_fingerprint_distinct"] = 1
			if t.routeFingerprint != u.routeFingerprint {
				pair["ssr.route_fingerprint_distinct"] = 2
			}
		}
		sm.add(pair)
		if first == nil {
			first, firstAt = u, i
		}
	}
	v := sm.summarize(perLayer, len(sm["wall_s"]))
	v["bench.reps"] = float64(len(sm["wall_s"]))
	v["bench.stalled_inputs"] = float64(stalled)
	v["ssr.route_fingerprint_distinct"] = quantile(sm["ssr.route_fingerprint_distinct"], 1) // the worst pair

	ex := r.w.extras(r.c, subSeed(r.seed, firstAt), first)
	r.tally(ex)
	for k, x := range ex.v {
		v[k] = x
	}
	return v
}

func peakRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024 // Linux reports kilobytes
}
