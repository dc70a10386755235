package exp

// This file is the one way an experiment obtains an engine, a network or a
// repeated run: the constructor attaches the harness tracer to engine and
// network and selects the harness transport, linRuns and bootRuns
// fix which seeds run, in which order, against which deadline, and that
// every cluster is stopped; over, share and perNode fold the runs into
// table cells.

import (
	"fmt"

	"repro/internal/graph"
	"repro/internal/linearize"
	"repro/internal/metrics"
	"repro/internal/node"
	"repro/internal/phys"
	"repro/internal/rel"
	"repro/internal/sim"
	"repro/internal/ssr"
)

// topoOrDie builds a topology for harness code where the parameters are
// static and known-good.
func topoOrDie(t graph.Topology, n int, seed int64) *graph.Graph {
	g, err := graph.Generate(t, n, graph.RandomIDs, seed)
	if err != nil {
		panic(fmt.Sprintf("exp: topology %s/%d: %v", t, n, err))
	}
	return g
}

// newEngine returns an event engine carrying the harness tracer.
func (h Harness) newEngine(seed int64) *sim.Engine {
	return sim.NewEngine(seed, sim.WithTracer(h.Tracer))
}

// newNet builds the raw network of a generated topology, engine and
// topology from the same seed, plus the transport protocols run over
// (h.Transport). The raw network stays the handle for fault injection and
// counters when the reliable sublayer is interposed.
func (h Harness) newNet(topo graph.Topology, n int, seed int64) (*phys.Network, phys.Transport) {
	return h.netOn(h.newEngine(seed), topoOrDie(topo, n, seed))
}

// netOn is newNet for a given graph on a given engine (from newEngine): the
// hand-built states of the figures, and topologies drawn from the engine's
// own random source.
func (h Harness) netOn(eng *sim.Engine, g *graph.Graph) (*phys.Network, phys.Transport) {
	raw := phys.NewNetwork(eng, g, phys.WithTracer(h.Tracer))
	if h.Transport == TransportReliable {
		return raw, rel.New(raw, rel.DefaultConfig())
	}
	return raw, raw
}

// linRuns repeats one round-model configuration: run s linearizes mk(s)
// with daemon seed s.
func (h Harness) linRuns(seeds int, cfg linearize.Config, mk func(s int) *graph.Graph) []linearize.Stats {
	runs := make([]linearize.Stats, seeds)
	for s := range runs {
		cfg.Seed = int64(s)
		runs[s], _ = h.runLin(mk(s), cfg)
	}
	return runs
}

func rounds(st linearize.Stats) float64 { return float64(st.Rounds) }
func converged(st linearize.Stats) bool { return st.Converged }

// bootRun is one bootstrap taken to global consistency or to its deadline,
// with the raw network's frame counters (not the network: a run whose
// cluster the caller drops is garbage once folded).
type bootRun struct {
	sent *phys.Counters
	at   sim.Time
	ok   bool
}

// bootRuns repeats one message-level bootstrap: run s builds the topology
// of seed seedMult*n+s, starts mk's protocol over it, runs it until
// consistent or deadline, and stops it. The stopped clusters come back
// beside the runs, for their per-node state. It takes the harness as its
// first argument because a Go method cannot have type parameters.
func bootRuns[C node.Protocol](h Harness, topo graph.Topology, n, seeds, seedMult int, deadline sim.Time, mk func(phys.Transport) C) ([]bootRun, []C) {
	runs, cls := make([]bootRun, seeds), make([]C, seeds)
	for s := range runs {
		net, tr := h.newNet(topo, n, int64(seedMult*n+s))
		cls[s] = mk(tr)
		at, ok := cls[s].RunUntilConsistent(deadline)
		cls[s].Stop()
		runs[s] = bootRun{net.Counters(), at, ok}
	}
	return runs, cls
}

func bootTime(r bootRun) float64 { return float64(r.at) }
func booted(r bootRun) bool      { return r.ok }
func msgs(r bootRun) float64     { return float64(r.sent.Total()) }

// frames is the column of physical frames of the given kinds.
func frames(kinds ...string) func(bootRun) float64 {
	return func(r bootRun) float64 {
		var sum int64
		for _, k := range kinds {
			sum += r.sent.Get(k)
		}
		return float64(sum)
	}
}

// over summarizes one column of a set of runs.
func over[R any](runs []R, column func(R) float64) metrics.Summary {
	xs := make([]float64, len(runs))
	for i, r := range runs {
		xs[i] = column(r)
	}
	return metrics.Summarize(xs)
}

// share renders how many of the runs are ok as "k/n".
func share[R any](runs []R, ok func(R) bool) string {
	k := 0
	for _, r := range runs {
		if ok(r) {
			k++
		}
	}
	return fmt.Sprintf("%d/%d", k, len(runs))
}

// perNode summarizes a per-node quantity pooled over the runs' clusters.
func perNode[C any](cls []C, state func(C) []int) metrics.Summary {
	var xs []int
	for _, cl := range cls {
		xs = append(xs, state(cl)...)
	}
	return metrics.Summarize(metrics.Ints(xs))
}

// ssrOver is ssr.NewCluster with cfg, in the shape bootRuns starts a
// protocol with.
func ssrOver(cfg ssr.Config) func(phys.Transport) *ssr.Cluster {
	return func(t phys.Transport) *ssr.Cluster { return ssr.NewCluster(t, cfg) }
}

// cacheSizes is SSR's per-node state: cached routes.
func cacheSizes(cl *ssr.Cluster) []int {
	var xs []int
	for _, n := range cl.Nodes {
		xs = append(xs, n.Cache().Len())
	}
	return xs
}
