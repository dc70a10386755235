// Package node is the runtime the four message-level bootstrap protocols
// (ssr, vrr, isprp, floodboot) stand on: the protocol contract, the cluster
// driver, the maintenance tick chain and — for the two protocols that close
// the ring by discovery — the §4 wrap-partner state machine. Each protocol
// keeps only its handlers and its own state (route cache, path table,
// successor pointer, known-set); the rules here are stated once so that a
// fix to one of them reaches every protocol.
package node

import (
	"repro/internal/graph"
	"repro/internal/ids"
	"repro/internal/phys"
	"repro/internal/sim"
	"repro/internal/sroute"
	"repro/internal/trace"
)

// Protocol is a running bootstrap protocol over a physical network — the
// one contract harnesses, CLIs and the chaos suite program against. All
// four clusters satisfy it.
type Protocol interface {
	// VirtualGraph snapshots the protocol's current virtual edge set E_v.
	VirtualGraph() *graph.Graph
	// AttachProbe samples the virtual graph into p every `every` engine
	// ticks until Stop; each sample is one "round" of the convergence
	// series, the bridge between the asynchronous protocols and the
	// round-model probes.
	AttachProbe(p *trace.Probe, every sim.Time)
	// Consistent reports global consistency right now.
	Consistent() bool
	// RunUntilConsistent drives the simulation until global consistency or
	// the deadline, returning the reached time and whether it converged.
	RunUntilConsistent(deadline sim.Time) (sim.Time, bool)
	// Stop halts periodic activity and attached probes.
	Stop()
}

// Attach puts one protocol participant on the network: handler gets its
// frames and, over a transport with a failure detector (rel), onLease gets
// the lease verdicts about its physical neighbours — long before the
// protocol's own silence threshold would notice a dead one.
func Attach(net phys.Transport, id ids.ID, handler func(phys.Message), onLease phys.LeaseFunc) {
	net.Register(id, phys.HandlerFunc(handler))
	if fd, ok := net.(phys.FailureDetector); ok {
		fd.SubscribeLeases(id, onLease)
	}
}

// Overhear hands learn the route segments a relay reads off a packet it
// forwards (§1: nodes store overheard source routes), each starting at the
// relay: the way back to the source, reversed into *buf, then the way on to
// the destination, a view of the packet's route. learn must not keep its
// argument: a relay learns from every packet it forwards and allocates
// nothing for a segment it already caches.
func Overhear(pkt phys.SRPacket, buf *sroute.Route, learn func(sroute.Route)) {
	if back := pkt.Route[:pkt.Hop+1]; len(back) >= 2 {
		*buf = back.ReverseInto(*buf)
		learn(*buf)
	}
	if fwd := pkt.Route[pkt.Hop:]; len(fwd) >= 2 {
		learn(fwd)
	}
}

// Member is what the cluster driver needs of one protocol participant.
type Member interface {
	// VirtualNeighbors lists the far ends of this node's virtual edges.
	VirtualNeighbors() []ids.ID
	// Stop halts the node's periodic activity.
	Stop()
}

// Cluster runs one protocol instance per topology node. The protocol
// packages embed it in their own Cluster type and add the consistency
// oracle, which only they can state.
type Cluster[N Member] struct {
	Net   phys.Transport
	Nodes map[ids.ID]N

	consistent   func() bool
	probeStopped bool
}

// NewCluster creates one member per topology node and then starts them,
// both in ascending identifier order. The order is behaviour: creating
// registers handlers, and starting schedules timers, draws start jitter
// from the engine's seeded source and (floodboot) sends frames, so
// map-order iteration here would reshuffle the event sequence — and with it
// every later RNG draw — between runs of the same seed. consistent is the
// embedding cluster's oracle, polled by RunUntilConsistent.
func NewCluster[N Member](net phys.Transport, consistent func() bool, create func(ids.ID) N, start func(ids.ID, N)) Cluster[N] {
	c := Cluster[N]{Net: net, Nodes: make(map[ids.ID]N), consistent: consistent}
	order := net.Topology().Nodes()
	for _, v := range order {
		c.Nodes[v] = create(v)
	}
	for _, v := range order {
		start(v, c.Nodes[v])
	}
	return c
}

// IDs returns the current members' identifiers, ascending: the sorted line
// the oracles compare against. Its first and last are the true extremes.
func (c *Cluster[N]) IDs() []ids.ID {
	out := make([]ids.ID, 0, len(c.Nodes))
	for v := range c.Nodes {
		out = append(out, v)
	}
	ids.SortAsc(out)
	return out
}

// SuccessorRing is the oracle of the successor-pointer protocols (isprp,
// floodboot): it reports whether, with the members ascending, member i's
// successor is member (i+1) mod n — the one sorted ring, decided in one walk
// over consecutive members as §3 decides it on the line. It builds no
// successor map; vring.SuccMap.GloballyConsistent is its reference.
func (c *Cluster[N]) SuccessorRing(succ func(N) (ids.ID, bool)) bool {
	line := c.IDs()
	if len(line) < 2 {
		return true
	}
	for i, v := range line {
		if s, ok := succ(c.Nodes[v]); !ok || s != line[(i+1)%len(line)] {
			return false
		}
	}
	return true
}

// KnowsLine is the line clause of the two-sided oracles (vrr, ssr): it
// reports whether, with the members ascending, member i knows members i−1
// and i+1 as knows tells, in one walk that builds no graph. lo and hi are
// the extreme members, for the ring-closure clause (AtExtremes).
func (c *Cluster[N]) KnowsLine(knows func(n N, u ids.ID) bool) (lo, hi N, ok bool) {
	line := c.IDs()
	if len(line) == 0 {
		return lo, hi, true
	}
	for i, v := range line {
		n := c.Nodes[v]
		if i > 0 && !knows(n, line[i-1]) || i+1 < len(line) && !knows(n, line[i+1]) {
			return lo, hi, false
		}
	}
	return c.Nodes[line[0]], c.Nodes[line[len(line)-1]], true
}

// VirtualGraph returns the current virtual edge set E_v: an undirected edge
// {v,u} for every virtual neighbor u of every member v.
func (c *Cluster[N]) VirtualGraph() *graph.Graph {
	g := graph.New()
	for v, n := range c.Nodes {
		g.AddNode(v)
		for _, u := range n.VirtualNeighbors() {
			g.AddEdge(v, u)
		}
	}
	return g
}

// AttachProbe samples the cluster's virtual graph into the convergence
// probe every `every` ticks, starting one interval from now, until Stop.
// Each sample is one "round" of the message-level convergence series —
// the hook that lets the round-by-round probes of the abstract model watch
// the asynchronous protocols too.
func (c *Cluster[N]) AttachProbe(p *trace.Probe, every sim.Time) {
	if p == nil {
		return
	}
	round := 0
	c.Net.Engine().Every(every, func() bool {
		if c.probeStopped {
			return false
		}
		p.Observe(round, c.VirtualGraph())
		round++
		return true
	})
}

// Budget is the time a bootstrap of n nodes gets to reach global
// consistency, n·4096 ticks: the deadline every experiment passes to
// RunUntilConsistent, and the chaos runner's bound on reconvergence.
func Budget(n int) sim.Time { return sim.Time(n) * 4096 }

// RunUntilConsistent drives the simulation until global consistency or the
// deadline, returning the convergence time and whether it converged.
func (c *Cluster[N]) RunUntilConsistent(deadline sim.Time) (sim.Time, bool) {
	return c.Net.Engine().RunUntilHolds(deadline, 8, c.consistent)
}

// Stop halts all members' periodic activity and any attached probes.
func (c *Cluster[N]) Stop() {
	c.probeStopped = true
	for _, n := range c.Nodes {
		n.Stop()
	}
}

// Maintain runs body every interval ticks at node id, first at
// interval+jitter, until *stopped. A node that is down does no protocol
// work but stays scheduled, so RecoverNode resumes maintenance without
// anyone having to restart the node (crash/recover churn). body runs before
// the chain re-arms: its sends and timers are ordered ahead of the next
// tick, as they were when each protocol carried this loop itself.
func Maintain(net phys.Transport, id ids.ID, interval, jitter sim.Time, stopped *bool, body func()) {
	eng := net.Engine()
	var tick func()
	tick = func() {
		if *stopped {
			return
		}
		if net.Up(id) {
			body()
		}
		eng.After(interval, tick)
	}
	eng.After(interval+jitter, tick)
}

// Trace emits one protocol event of node self through net's tracer, at the
// engine's time: E_v churn (EvEdge*, Aux the cause) and ring closure.
func Trace(net phys.Transport, self ids.ID, t trace.EventType, peer ids.ID, aux string) {
	if tr := net.Tracer(); tr != nil {
		tr.Emit(trace.Event{T: int64(net.Engine().Now()), Type: t, Node: self, Peer: peer, Aux: aux})
	}
}
