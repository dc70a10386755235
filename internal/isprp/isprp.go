// Package isprp implements the Iterative Successor Pointer Rewiring
// Protocol — the bootstrap mechanism SSR originally used and the baseline
// that linearization replaces (§3).
//
// Each node maintains a pointer to its presumed ring successor and
// periodically sends it a notification message (carrying a source route, so
// the successor learns a route back). A node that detects a local
// inconsistency — more than one node claiming it as successor — sends
// update messages that impose a partial order among the claimants: if B and
// C both notified A and B < C < A (in ring order), A points B at C by
// sending B the source route A→C, which B appends to its route B→A to
// obtain B→C. This repeats until every node has exactly one successor and
// one predecessor: local consistency.
//
// Local consistency does not imply global consistency: the loopy state
// (Fig. 1) and separate rings (Fig. 2) are locally consistent. ISPRP
// therefore requires the node with the numerically largest address (the
// representative) to flood the network; the flood hands every node a route
// to the representative, and the normal rewiring process then dissolves the
// global inconsistency. This flooding cost is what the linearization
// approach eliminates, and the E6 experiment measures it.
//
// Generalized rewiring rule (the TR's iterative mechanism): whenever a node
// learns of any node x with x strictly between itself and its current
// successor on the ring, it adopts x as its new successor; and a notified
// successor A answers a claimant B with the best successor for B that A
// knows about (which subsumes the two-claimant example above).
package isprp

import (
	"repro/internal/cache"
	"repro/internal/ids"
	"repro/internal/node"
	"repro/internal/phys"
	"repro/internal/sim"
	"repro/internal/sroute"
	"repro/internal/trace"
	"repro/internal/vring"
)

// Message kinds, for counter accounting.
const (
	KindNotify = "isprp:notify"
	KindUpdate = "isprp:update"
	KindFlood  = "isprp:flood"
)

// Config tunes the protocol.
type Config struct {
	// TickInterval is the successor-notification period (default 16).
	TickInterval sim.Time
	// FloodDelay is when local maxima initiate the representative flood
	// (default 64). Only nodes that still believe themselves the largest
	// initiate; floods for smaller origins are suppressed by larger ones.
	FloodDelay sim.Time
	// EnableFlood switches the representative flood on (the ISPRP
	// baseline). Disabling it is the ablation that demonstrates why ISPRP
	// needs flooding: loopy and partitioned states then persist forever.
	EnableFlood bool
}

func (c Config) withDefaults() Config {
	if c.TickInterval <= 0 {
		c.TickInterval = 16
	}
	if c.FloodDelay <= 0 {
		c.FloodDelay = 64
	}
	return c
}

// updatePayload is the body of an update message: the receiver appends
// BetterRoute (sender→better) to its reversed packet route to obtain its
// own route to the better successor.
type updatePayload struct {
	BetterRoute sroute.Route
}

// floodPayload is the body of a representative flood frame.
type floodPayload struct {
	Origin ids.ID
	Path   []ids.ID // origin → … → sender
}

// Node is one ISPRP participant.
type Node struct {
	id      ids.ID
	net     phys.Transport
	courier *phys.Courier
	cfg     Config

	rc        *cache.Cache
	succ      ids.ID
	hasSucc   bool
	claimants ids.Set
	// floodedMax is the largest flood origin this node has relayed;
	// floods for origins ≤ floodedMax are suppressed.
	floodedMax ids.ID
	hasFlooded bool
	stopped    bool
	back       sroute.Route // scratch for the reversed routes handed to learnRoute
}

// NewNode creates and registers an ISPRP node on the network. Call Start
// to begin protocol activity.
func NewNode(net phys.Transport, id ids.ID, cfg Config) *Node {
	n := &Node{
		id:        id,
		net:       net,
		cfg:       cfg.withDefaults(),
		rc:        cache.New(id, cache.Unbounded),
		claimants: ids.NewSet(),
	}
	n.courier = phys.NewCourier(net, id)
	n.courier.OnDeliver = n.deliver
	n.courier.OnForward = n.overhear
	node.Attach(net, id, n.handle, n.onLease)
	return n
}

// onLease consumes a failure-detector verdict about physical neighbor peer.
// Down: purge every cached route crossing the dead link and re-pick the
// successor from the surviving destinations — a successor pointer through a
// dead first hop would otherwise keep notifying into the void until a
// better route happened by. Up: re-learn the direct edge.
func (n *Node) onLease(peer ids.ID, up bool) {
	if n.stopped {
		return
	}
	if up {
		if r, err := sroute.New(n.id, peer); err == nil {
			n.learnRoute(r)
		}
		return
	}
	for _, dst := range n.rc.Destinations() {
		if n.rc.Route(dst).Via(peer) {
			n.rc.Remove(dst)
		}
	}
	if n.hasSucc && n.rc.Route(n.succ) == nil {
		n.hasSucc = false
		// Adopt the ring-closest surviving destination; the rewiring rule
		// refines it as better candidates are learned.
		for _, x := range n.rc.Destinations() {
			if !n.hasSucc || ids.Between(x, n.id, n.succ) {
				n.succ, n.hasSucc = x, true
			}
		}
	}
}

// ID returns the node identifier.
func (n *Node) ID() ids.ID { return n.id }

// Successor returns the current successor pointer.
func (n *Node) Successor() (ids.ID, bool) { return n.succ, n.hasSucc }

// VirtualNeighbors returns the successor pointer as this node's one virtual
// edge — the view the convergence probes measure. A consistent ring shows
// up as the sorted line plus the wrap edge, which LineDistance exempts.
func (n *Node) VirtualNeighbors() []ids.ID {
	if !n.hasSucc {
		return nil
	}
	return []ids.ID{n.succ}
}

// Cache exposes the node's route cache (for inspection in experiments).
func (n *Node) Cache() *cache.Cache { return n.rc }

// SetSuccessor injects a successor pointer and its route — used to place
// nodes into adversarial initial states such as the Fig. 1 loopy state.
func (n *Node) SetSuccessor(route sroute.Route) {
	n.rc.Insert(route)
	n.succ = route.Dst()
	n.hasSucc = true
}

// Start learns the physical neighborhood, picks the initial successor, and
// begins periodic notifications. jitter staggers the first tick.
func (n *Node) Start(jitter sim.Time) {
	nbrs := n.net.NeighborsOf(n.id)
	n.rc.Grow(len(nbrs))
	for _, u := range nbrs {
		if r, err := sroute.New(n.id, u); err == nil {
			n.learnRoute(r)
		}
	}
	node.Maintain(n.net, n.id, n.cfg.TickInterval, jitter, &n.stopped, n.tick)
	if n.cfg.EnableFlood {
		n.net.Engine().After(n.cfg.FloodDelay+jitter, n.maybeFlood)
	}
}

// Stop halts periodic activity after the current event.
func (n *Node) Stop() { n.stopped = true }

func (n *Node) tick() {
	if n.hasSucc {
		if r := n.rc.Route(n.succ); r != nil {
			n.courier.Send(r, KindNotify, nil)
		}
	}
}

// maybeFlood initiates the representative flood if this node still believes
// itself the numerically largest (§3: "SSR and VRR propose to choose the
// node with the numerically largest address as (one) representative").
func (n *Node) maybeFlood() {
	if n.stopped || !n.net.Up(n.id) {
		return
	}
	if n.believesLargest() && (!n.hasFlooded || n.floodedMax < n.id) {
		n.hasFlooded = true
		n.floodedMax = n.id
		if tr := n.net.Tracer(); tr != nil {
			// One counter event per flood origination; the per-frame flood
			// taxonomy is covered by the network's EvMsgSend events.
			tr.Emit(trace.Event{
				T: int64(n.net.Engine().Now()), Type: trace.EvCounter,
				Node: n.id, Kind: "isprp:flood-origin", Value: 1,
			})
		}
		n.net.Broadcast(n.id, KindFlood, floodPayload{Origin: n.id, Path: []ids.ID{n.id}})
	}
}

func (n *Node) believesLargest() bool {
	largest := true
	n.rc.Each(func(x ids.ID, _ sroute.Route) { largest = largest && x <= n.id })
	return largest
}

// handle is the raw frame handler: courier traffic first, then floods.
func (n *Node) handle(m phys.Message) {
	if n.courier.Handle(m) {
		return
	}
	if m.Kind == KindFlood {
		n.handleFlood(m)
	}
}

func (n *Node) handleFlood(m phys.Message) {
	fp, ok := m.Payload.(floodPayload)
	if !ok {
		return
	}
	// Learn a route back to the origin: reverse the accumulated path.
	full := append(append([]ids.ID(nil), fp.Path...), n.id)
	back := sroute.Route(full).Reverse().ElideLoops()
	if len(back) >= 2 {
		n.learnRoute(back)
	}
	// Relay if this origin beats everything we have relayed so far and we
	// are not ourselves larger (a larger node will start its own flood).
	if fp.Origin > n.floodedMax && fp.Origin != n.id {
		n.floodedMax = fp.Origin
		n.hasFlooded = true
		n.net.Broadcast(n.id, KindFlood, floodPayload{Origin: fp.Origin, Path: full})
	}
}

// deliver handles courier packets addressed to this node.
func (n *Node) deliver(pkt phys.SRPacket) {
	from := pkt.Route.Src()
	// Any packet teaches us the reverse route to its sender.
	n.back = pkt.Route.ReverseInto(n.back)
	n.learnRoute(n.back)
	switch pkt.Kind {
	case KindNotify:
		n.handleNotify(from)
	case KindUpdate:
		up, ok := pkt.Payload.(updatePayload)
		if !ok {
			return
		}
		n.handleUpdate(n.back, up)
	}
}

// overhear lets forwarding nodes cache route segments of relayed packets —
// SSR route learning (§1: nodes "store (some of) these source routes").
func (n *Node) overhear(pkt phys.SRPacket) { node.Overhear(pkt, &n.back, n.learnRoute) }

// handleNotify processes a successor claim from node from.
func (n *Node) handleNotify(from ids.ID) {
	n.claimants.Add(from)
	// Answer with the best successor for the claimant that we know of. If
	// we know a node D strictly between from and us, from should use D.
	if best, ok := n.bestSuccessorFor(from); ok && best != n.id {
		n.sendUpdate(from, best)
	}
	if n.claimants.Len() <= 1 {
		return
	}
	// Multiple claimants: impose the partial order of §3. Sort claimants by
	// ring position approaching us; point each at the next one and keep the
	// closest as our predecessor.
	order := n.claimants.Sorted()
	// Sort by descending ring distance to us: farthest first.
	for i := 0; i < len(order); i++ {
		for j := i + 1; j < len(order); j++ {
			if ids.RingDist(order[j], n.id) > ids.RingDist(order[i], n.id) {
				order[i], order[j] = order[j], order[i]
			}
		}
	}
	for i := 0; i+1 < len(order); i++ {
		n.sendUpdate(order[i], order[i+1])
	}
	n.claimants = ids.NewSet(order[len(order)-1])
}

// bestSuccessorFor returns the cached node (or us) ring-closest after from.
func (n *Node) bestSuccessorFor(from ids.ID) (ids.ID, bool) {
	best := n.id
	n.rc.Each(func(x ids.ID, _ sroute.Route) {
		if x != from && ids.RingDist(from, x) < ids.RingDist(from, best) {
			best = x
		}
	})
	return best, true
}

// sendUpdate points node to at node better, carrying our route to better so
// the receiver can compose its own.
func (n *Node) sendUpdate(to, better ids.ID) {
	if to == better {
		return
	}
	rTo := n.rc.Route(to)
	rBetter := n.rc.Route(better)
	if rTo == nil || rBetter == nil {
		return
	}
	n.courier.Send(rTo, KindUpdate, updatePayload{BetterRoute: rBetter.Clone()})
}

// handleUpdate composes the route to the suggested better successor from
// back, the packet's route reversed (us → sender), and rewires if it
// improves.
func (n *Node) handleUpdate(back sroute.Route, up updatePayload) {
	if up.BetterRoute == nil || back.Dst() != up.BetterRoute.Src() {
		return
	}
	composed, err := back.Append(up.BetterRoute)
	if err != nil || len(composed) < 2 {
		return
	}
	n.learnRoute(composed)
}

// learnRoute caches a route and applies the successor rewiring rule: adopt
// the destination if it falls strictly between us and our current
// successor. It never keeps r (the cache stores a copy), so callers may
// hand it a scratch buffer or a view of a packet's route.
func (n *Node) learnRoute(r sroute.Route) {
	if len(r) < 2 || r.Src() != n.id {
		return
	}
	n.rc.Insert(r)
	dst := r.Dst()
	switch {
	case !n.hasSucc:
		n.succ = dst
		n.hasSucc = true
	case ids.Between(dst, n.id, n.succ):
		n.succ = dst
	}
}

// --- Cluster driver --------------------------------------------------------

// Cluster runs ISPRP over an entire network — the shared driver of package
// node — and provides the convergence oracle used by experiments.
type Cluster struct {
	node.Cluster[*Node]
}

// NewCluster creates one ISPRP node per registered topology node and starts
// them from empty virtual state with per-node jitter.
func NewCluster(net phys.Transport, cfg Config) *Cluster {
	return NewClusterFrom(net, cfg, nil)
}

// NewClusterFrom is NewCluster from a given initial state: every node that
// succ names starts with that successor pointer and the direct route to it
// (succ[v] must be a physical neighbor of v) — how the locally consistent
// but globally wrong states of Figs. 1 and 2 are injected. With a preset
// state the start offsets are id mod 8, a fixed function of the scenario;
// without one they are drawn from the engine's seeded source.
func NewClusterFrom(net phys.Transport, cfg Config, succ vring.SuccMap) *Cluster {
	c := &Cluster{}
	c.Cluster = node.NewCluster(net, c.Consistent,
		func(v ids.ID) *Node { return NewNode(net, v, cfg) },
		func(v ids.ID, n *Node) {
			if succ == nil {
				n.Start(sim.Time(net.Engine().Rand().Int63n(int64(n.cfg.TickInterval))))
				return
			}
			if to, ok := succ[v]; ok {
				if r, err := sroute.New(v, to); err == nil {
					n.SetSuccessor(r)
				}
			}
			n.Start(sim.Time(int64(v) % 8))
		})
	return c
}

// Consistent reports whether the ring is globally consistent right now.
func (c *Cluster) Consistent() bool {
	return len(c.Nodes) < 2 || node.Successors(c.Nodes).GloballyConsistent(c.IDs())
}
