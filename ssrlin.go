// Package ssrlin is the public facade of the SSR-linearization
// reproduction: it bundles the building blocks — topology generation, the
// abstract linearization algorithms, and the message-level SSR / VRR /
// ISPRP protocol simulators — behind one import path.
//
// The headline result it packages (Kutzner & Fuhrmann, "Using Linearization
// for Global Consistency in SSR", IPPS 2007): the virtual ring of SSR and
// VRR can be bootstrapped by self-stabilizing graph linearization, which
// guarantees global consistency without any flooding and converges in
// polylogarithmically many rounds on average when shortcut neighbors are
// kept.
//
// Quick start:
//
//	net, err := ssrlin.NewSimulation(ssrlin.Options{
//		Topology: ssrlin.TopoUnitDisk, Nodes: 64, Seed: 7,
//	})
//	...
//	res := net.BootstrapSSR(ssrlin.SSRConfig{CloseRing: true})
//	if res.Converged {
//		out := net.Route(src, dst)       // greedy SSR routing
//	}
//
// The abstract round-model algorithms are available via Linearize, and the
// per-figure/per-table experiment harnesses via internal/exp (wired into
// the cmd/ tools and the root benchmark suite).
package ssrlin

import (
	"fmt"

	"repro/internal/cache"
	"repro/internal/graph"
	"repro/internal/ids"
	"repro/internal/isprp"
	"repro/internal/linearize"
	"repro/internal/node"
	"repro/internal/phys"
	"repro/internal/sim"
	"repro/internal/ssr"
	"repro/internal/vring"
	"repro/internal/vrr"
)

// ID is a node identifier (re-exported).
type ID = ids.ID

// Topology names (re-exported).
const (
	TopoLine     = graph.TopoLine
	TopoRing     = graph.TopoRing
	TopoStar     = graph.TopoStar
	TopoGrid     = graph.TopoGrid
	TopoER       = graph.TopoER
	TopoRegular  = graph.TopoRegular
	TopoPowerLaw = graph.TopoPowerLaw
	TopoBarabasi = graph.TopoBarabasi
	TopoUnitDisk = graph.TopoUnitDisk
)

// Linearization variants (re-exported).
const (
	Pure   = linearize.Pure
	Memory = linearize.Memory
	LSN    = linearize.LSN
)

// Options configures a simulation.
type Options struct {
	// Topology selects the physical graph generator (default TopoER).
	Topology graph.Topology
	// Nodes is the network size (default 32).
	Nodes int
	// Seed makes the whole run reproducible.
	Seed int64
	// Loss is the per-frame drop probability (default 0).
	Loss float64
	// Latency is the per-link delay in ticks (default 1).
	Latency int64
}

// Simulation owns a simulated physical network and whichever protocol
// cluster was bootstrapped on it.
type Simulation struct {
	opts Options
	net  *phys.Network

	ssrCluster   *ssr.Cluster
	vrrCluster   *vrr.Cluster
	isprpCluster *isprp.Cluster
	// proto is whichever of the three was bootstrapped, for Consistent.
	proto node.Protocol
}

// NewSimulation builds the physical network.
func NewSimulation(opts Options) (*Simulation, error) {
	if opts.Topology == "" {
		opts.Topology = graph.TopoER
	}
	if opts.Nodes <= 0 {
		opts.Nodes = 32
	}
	topo, err := graph.Generate(opts.Topology, opts.Nodes, graph.RandomIDs, opts.Seed)
	if err != nil {
		return nil, fmt.Errorf("ssrlin: %w", err)
	}
	latency := opts.Latency
	if latency <= 0 {
		latency = 1
	}
	engine := sim.NewEngine(opts.Seed)
	net := phys.NewNetwork(engine, topo,
		phys.WithLoss(opts.Loss),
		phys.WithLatency(phys.ConstantLatency(sim.Time(latency))))
	return &Simulation{opts: opts, net: net}, nil
}

// NodeIDs returns all node identifiers in ascending order.
func (s *Simulation) NodeIDs() []ID { return s.net.Topology().Nodes() }

// Network exposes the underlying physical network (message counters,
// churn controls).
func (s *Simulation) Network() *phys.Network { return s.net }

// Messages returns the total protocol frames transmitted so far.
func (s *Simulation) Messages() int64 { return s.net.Counters().Total() }

// BootstrapResult reports how a bootstrap went.
type BootstrapResult struct {
	Converged bool
	// Time is the simulated convergence instant (or the deadline).
	Time int64
	// Messages is the total physical frames transmitted.
	Messages int64
}

// SSRConfig re-exports ssr.Config.
type SSRConfig = ssr.Config

// BootstrapSSR runs the linearization bootstrap of §4 over the network and
// drives the simulation to global consistency (deadline scales with n).
func (s *Simulation) BootstrapSSR(cfg SSRConfig) BootstrapResult {
	s.ssrCluster = ssr.NewCluster(s.net, cfg)
	return s.bootstrap(s.ssrCluster)
}

// bootstrap drives the freshly started protocol to global consistency.
func (s *Simulation) bootstrap(p node.Protocol) BootstrapResult {
	s.proto = p
	at, ok := p.RunUntilConsistent(s.deadline())
	return BootstrapResult{Converged: ok, Time: int64(at), Messages: s.Messages()}
}

// VRRConfig re-exports vrr.Config.
type VRRConfig = vrr.Config

// BootstrapVRR runs the linearized VRR bootstrap (footnote 1 of §4).
func (s *Simulation) BootstrapVRR(cfg VRRConfig) BootstrapResult {
	s.vrrCluster = vrr.NewCluster(s.net, cfg)
	return s.bootstrap(s.vrrCluster)
}

// ISPRPConfig re-exports isprp.Config.
type ISPRPConfig = isprp.Config

// BootstrapISPRP runs the flooding baseline that linearization replaces.
func (s *Simulation) BootstrapISPRP(cfg ISPRPConfig) BootstrapResult {
	s.isprpCluster = isprp.NewCluster(s.net, cfg)
	return s.bootstrap(s.isprpCluster)
}

func (s *Simulation) deadline() sim.Time {
	d := sim.Time(s.opts.Nodes) * 4096
	if d < 65536 {
		d = 65536
	}
	return s.net.Engine().Now() + d
}

// RouteOutcome describes one routed packet.
type RouteOutcome struct {
	Delivered bool
	Hops      int     // physical transmissions used
	Stretch   float64 // Hops / shortest-path hops
}

// Route sends a data packet with SSR's greedy routing (requires a prior
// BootstrapSSR).
func (s *Simulation) Route(src, dst ID) RouteOutcome {
	if s.ssrCluster == nil {
		return RouteOutcome{}
	}
	r := s.ssrCluster.RouteData(src, dst, 8192)
	return RouteOutcome{Delivered: r.Delivered, Hops: r.Hops, Stretch: r.Stretch()}
}

// Consistent reports whether the bootstrapped protocol's virtual structure
// is globally consistent right now.
func (s *Simulation) Consistent() bool {
	return s.proto != nil && s.proto.Consistent()
}

// SSR exposes the SSR cluster after BootstrapSSR (nil before).
func (s *Simulation) SSR() *ssr.Cluster { return s.ssrCluster }

// VRR exposes the VRR cluster after BootstrapVRR (nil before).
func (s *Simulation) VRR() *vrr.Cluster { return s.vrrCluster }

// ISPRP exposes the ISPRP cluster after BootstrapISPRP (nil before).
func (s *Simulation) ISPRP() *isprp.Cluster { return s.isprpCluster }

// --- Abstract algorithm entry points ---------------------------------------

// LinearizeConfig re-exports linearize.Config.
type LinearizeConfig = linearize.Config

// LinearizeStats re-exports linearize.Stats.
type LinearizeStats = linearize.Stats

// Linearize runs a round-model linearization variant over the physical
// graph of the named topology and returns its statistics — the entry point
// for the E4/E5 convergence experiments.
func Linearize(topo graph.Topology, n int, seed int64, cfg LinearizeConfig) (LinearizeStats, error) {
	g, err := graph.Generate(topo, n, graph.RandomIDs, seed)
	if err != nil {
		return LinearizeStats{}, fmt.Errorf("ssrlin: %w", err)
	}
	stats, _ := linearize.Run(g, cfg)
	return stats, nil
}

// CacheModes (re-exported).
const (
	BoundedCache   = cache.Bounded
	UnboundedCache = cache.Unbounded
)

// LoopyExample returns the paper's Figure 1 state (re-exported).
func LoopyExample() vring.SuccMap { return vring.LoopyExample() }

// SeparateRingsExample returns the paper's Figure 2 state (re-exported).
func SeparateRingsExample() vring.SuccMap { return vring.SeparateRingsExample() }
