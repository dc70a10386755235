// Package phys simulates the physical network underneath SSR/VRR: nodes
// joined by communication links (radio links in the wireless case), per-link
// latency and loss, neighbor discovery, and churn.
//
// The physical graph E_p is the input topology; protocols send messages only
// across physical links (source routes are sequences of such single-hop
// sends). Delivery is mediated by a deterministic discrete-event engine
// (package sim), so runs are reproducible from their seed. Per-message
// accounting feeds the E6 experiment (message cost of ISPRP+flooding vs.
// linearization).
package phys

import (
	"fmt"
	"sort"

	"repro/internal/graph"
	"repro/internal/ids"
	"repro/internal/sim"
	"repro/internal/trace"
)

// Message is a single-hop physical-layer frame. Protocol payloads ride in
// Payload; Kind tags the protocol message type for accounting.
type Message struct {
	From, To ids.ID
	Kind     string
	Payload  any
	// Hops counts how many physical transmissions the enclosing protocol
	// operation has used so far; protocols thread it through multi-hop
	// forwards so stretch can be measured.
	Hops int
}

// Handler receives messages addressed to a node. Handlers run inside the
// simulation event loop and may send further messages.
type Handler interface {
	HandleMessage(m Message)
}

// HandlerFunc adapts a function to the Handler interface.
type HandlerFunc func(m Message)

// HandleMessage calls f(m).
func (f HandlerFunc) HandleMessage(m Message) { f(m) }

// Transport is the Send/Handler seam the protocols run over. The raw
// Network implements it directly (fire-and-forget frames); rel.Network
// wraps a Network behind the same surface, adding sequence-numbered
// delivery with ACKs, retransmission and a lease-based failure detector.
// Protocol packages accept a Transport, so "which delivery semantics" is a
// harness decision (the -transport flag), not a per-protocol rewrite.
type Transport interface {
	// Engine returns the underlying discrete-event engine.
	Engine() *sim.Engine
	// Topology returns the live physical graph.
	Topology() *graph.Graph
	// Counters returns the per-kind message accounting.
	Counters() *Counters
	// Tracer returns the transport's tracer (nil when tracing is off).
	Tracer() trace.Tracer
	// Register installs the protocol handler for a node.
	Register(v ids.ID, h Handler)
	// Nodes returns all registered node identifiers in ascending order.
	Nodes() []ids.ID
	// NeighborsOf returns the live physical neighbors of v, ascending.
	NeighborsOf(v ids.ID) []ids.ID
	// Up reports whether v is registered and not failed.
	Up(v ids.ID) bool
	// Send transmits (or for reliable transports: accepts for delivery) a
	// single-hop frame.
	Send(m Message) bool
	// Broadcast sends a frame to every live physical neighbor of from.
	Broadcast(from ids.ID, kind string, payload any) int
	// FailNode / RecoverNode drive node churn (harness-side; membership
	// experiments call them through the cluster drivers).
	FailNode(v ids.ID)
	RecoverNode(v ids.ID)
}

// LeaseFunc observes one failure-detector verdict about a physical
// neighbor of the subscribing node: up=false when the neighbor's lease
// expired (no traffic, heartbeats unanswered), up=true when traffic from a
// previously-dead neighbor resumed.
type LeaseFunc func(peer ids.ID, up bool)

// FailureDetector is the optional Transport capability the reliable
// sublayer adds: protocols subscribe per node and tear down state for dead
// neighbors on the down edge instead of waiting out their own silence
// thresholds. Raw networks do not implement it; protocols must type-assert
// and degrade gracefully.
type FailureDetector interface {
	SubscribeLeases(self ids.ID, cb LeaseFunc)
}

// LatencyModel computes the delivery delay for a frame crossing one link.
type LatencyModel func(from, to ids.ID) sim.Time

// ConstantLatency returns a model with a fixed per-link delay.
func ConstantLatency(d sim.Time) LatencyModel {
	return func(ids.ID, ids.ID) sim.Time { return d }
}

// Network is the simulated physical network. It is not safe for concurrent
// use; everything runs on the embedded event engine's single thread.
type Network struct {
	engine *sim.Engine
	topo   *graph.Graph
	// index maps a node to its slot in nodes; it is the only per-node map.
	index map[ids.ID]int32
	nodes []nodeState
	ndown int // nodes marked down: while 0, NeighborsOf probes nothing

	latency     LatencyModel
	lossProb    float64
	jitter      sim.Time // uniform extra delay in [0, jitter]
	corruptProb float64  // probability a delivered frame arrives garbled

	// gen counts link removals. A frame carries gen at send time: while no
	// link has been removed since, its link is still there and delivery
	// skips the topology. removedAt holds the gen of each link's latest
	// RemoveLink; a frame sent before it traveled a link incarnation that no
	// longer exists and is dropped as "stale-link" — even when the link has
	// been re-added in between. Without this, jitter reordering could
	// deliver a frame across a link incarnation it never traveled.
	gen       uint64
	removedAt map[linkKey]uint64

	free *frame // delivered frames awaiting reuse, linked through frame.next

	counters *Counters
	tracer   trace.Tracer
}

// nodeState is what the network knows of one node.
type nodeState struct {
	h          Handler
	registered bool
	down       bool
}

func (s *nodeState) up() bool { return s.registered && !s.down }

// linkKey canonicalizes an undirected link for removal accounting.
type linkKey struct{ U, V ids.ID }

func mkLinkKey(u, v ids.ID) linkKey {
	if u > v {
		u, v = v, u
	}
	return linkKey{U: u, V: v}
}

// Option configures a Network.
type Option func(*Network)

// WithLatency sets the per-link latency model (default: constant 1 tick).
func WithLatency(m LatencyModel) Option { return func(n *Network) { n.latency = m } }

// WithJitter adds a uniform random delay in [0, j] per frame.
func WithJitter(j sim.Time) Option { return func(n *Network) { n.jitter = j } }

// WithLoss drops each frame independently with probability p.
func WithLoss(p float64) Option { return func(n *Network) { n.lossProb = p } }

// WithCorruption garbles each delivered frame independently with
// probability p (see SetCorruption).
func WithCorruption(p float64) Option { return func(n *Network) { n.corruptProb = p } }

// SetLoss changes the frame-loss probability mid-run — the hook the chaos
// harness uses for scheduled loss bursts.
func (n *Network) SetLoss(p float64) { n.lossProb = p }

// SetJitter changes the per-frame delivery jitter mid-run. Frames already
// in flight keep the delay they were assigned at send time.
func (n *Network) SetJitter(j sim.Time) { n.jitter = j }

// SetCorruption changes the frame-corruption probability mid-run. A
// corrupted frame is still delivered — its payload is replaced by Garbled —
// so the receivers' decode paths face malformed input, which they must
// ignore without panicking or leaking state.
func (n *Network) SetCorruption(p float64) { n.corruptProb = p }

// Garbled is the payload of a corrupted frame: the bits arrived, the
// content is destroyed. Every protocol's payload type switch fails on it
// and must drop the frame gracefully.
type Garbled struct{}

// WithTracer installs a tracer receiving per-frame EvMsgSend / EvMsgRecv /
// EvMsgDrop events. A nil tracer (the default) keeps the send path on the
// zero-cost branch.
func WithTracer(t trace.Tracer) Option { return func(n *Network) { n.tracer = t } }

// NewNetwork builds a network over the given topology. The topology is
// cloned; later churn does not affect the caller's graph.
func NewNetwork(engine *sim.Engine, topo *graph.Graph, opts ...Option) *Network {
	n := &Network{
		engine:    engine,
		topo:      topo.Clone(),
		index:     make(map[ids.ID]int32, topo.NumNodes()),
		nodes:     make([]nodeState, 0, topo.NumNodes()),
		latency:   ConstantLatency(1),
		removedAt: make(map[linkKey]uint64),
		counters:  NewCounters(),
	}
	for _, o := range opts {
		o(n)
	}
	return n
}

// Engine returns the underlying event engine.
func (n *Network) Engine() *sim.Engine { return n.engine }

// Topology returns the live physical graph. Nodes and edges may be added to
// it directly, but edge removals go through the network (RemoveLink, or a
// Mobility process): delivery trusts a frame's link to exist as long as no
// link has been removed since the frame was sent.
func (n *Network) Topology() *graph.Graph { return n.topo }

// Counters returns the per-kind message accounting.
func (n *Network) Counters() *Counters { return n.counters }

// Tracer returns the network's tracer (nil when tracing is disabled).
// Protocol layers emit their own events — ring closure, edge delegation —
// through it, so one sink sees the whole stack.
func (n *Network) Tracer() trace.Tracer { return n.tracer }

// SetTracer installs (or with nil removes) the network's tracer.
func (n *Network) SetTracer(t trace.Tracer) { n.tracer = t }

// Register installs the protocol handler for a node.
func (n *Network) Register(v ids.ID, h Handler) {
	n.topo.AddNode(v)
	s := &n.nodes[n.indexOf(v)]
	s.h, s.registered = h, true
}

// indexOf returns v's dense index, assigning the next one the first time
// the network hears of v.
func (n *Network) indexOf(v ids.ID) int32 {
	i, ok := n.index[v]
	if !ok {
		i = int32(len(n.nodes))
		n.index[v] = i
		n.nodes = append(n.nodes, nodeState{})
	}
	return i
}

// lookup returns v's dense index, or −1 if the network has not heard of v.
func (n *Network) lookup(v ids.ID) int32 {
	if i, ok := n.index[v]; ok {
		return i
	}
	return -1
}

// Nodes returns all registered node identifiers in ascending order.
func (n *Network) Nodes() []ids.ID {
	out := make([]ids.ID, 0, len(n.index))
	for v, i := range n.index {
		if n.nodes[i].registered {
			out = append(out, v)
		}
	}
	ids.SortAsc(out)
	return out
}

// NeighborsOf returns the live physical neighbors of v (up nodes only), in
// ascending order. This models idealized link-layer neighbor discovery; the
// beacon-based discovery in beacons.go models the lossy variant.
func (n *Network) NeighborsOf(v ids.ID) []ids.ID {
	if n.isDown(v) {
		return nil
	}
	var out []ids.ID
	for _, u := range n.topo.Neighbors(v) {
		if !n.isDown(u) {
			out = append(out, u)
		}
	}
	return out
}

// isDown reports whether v is marked down.
func (n *Network) isDown(v ids.ID) bool {
	if n.ndown == 0 {
		return false
	}
	i := n.lookup(v)
	return i >= 0 && n.nodes[i].down
}

// Up reports whether v is registered and not failed.
func (n *Network) Up(v ids.ID) bool {
	i := n.lookup(v)
	return i >= 0 && n.nodes[i].up()
}

// Send transmits a single-hop frame from m.From to m.To. Both must be up
// and physically adjacent; otherwise the frame is dropped (counted as
// "drop"). Delivery is asynchronous at now+latency(+jitter), unless the
// loss model discards it. Send reports whether the frame was put on the
// air (not whether it will arrive).
func (n *Network) Send(m Message) bool {
	if !n.Up(m.From) || !n.topo.HasEdge(m.From, m.To) {
		n.counters.Inc("drop:no-link", 1)
		n.traceDrop(m, "no-link")
		return false
	}
	n.counters.Inc(m.Kind, 1)
	if n.lossProb > 0 && n.engine.Rand().Float64() < n.lossProb {
		n.counters.Inc("drop:loss", 1)
		n.traceDrop(m, "loss")
		return true // transmitted, never arrives
	}
	d := n.latency(m.From, m.To)
	if n.jitter > 0 {
		d += sim.Time(n.engine.Rand().Int63n(int64(n.jitter) + 1))
	}
	to := n.lookup(m.To)
	if n.tracer != nil {
		n.tracer.Emit(trace.Event{
			T: int64(n.engine.Now()), Type: trace.EvMsgSend,
			Node: m.From, Peer: m.To, Kind: m.Kind, Value: float64(d),
		})
	}
	m.Hops++
	f := n.free
	if f == nil {
		f = &frame{n: n}
		f.ev.Fn = f.deliver
	} else {
		n.free = f.next
	}
	f.m, f.to, f.gen = m, to, n.gen
	n.engine.Arm(&f.ev, d)
	return true
}

// frame is one frame in flight: the message, its receiver's index (−1 if
// the receiver was unknown at send time), the network's gen at send time,
// and its delivery event. A Network recycles its frames through free, so a
// send allocates only when more frames are in flight than ever before.
type frame struct {
	ev   sim.Event // Fn is f.deliver, bound once
	n    *Network
	m    Message
	to   int32
	gen  uint64
	next *frame
}

// deliver is the frame's arrival at m.To.
func (f *frame) deliver() {
	// Handlers send from inside their delivery: the struct goes back to the
	// free list first, and everything below reads the copies.
	n, m, to, gen := f.n, f.m, f.to, f.gen
	f.m.Payload = nil
	f.next, n.free = n.free, f

	// In-flight losses are attributed precisely: a dead receiver is
	// "dest-down", a link that churned away mid-flight is "link-gone".
	// Chaos runs rely on the distinction to tell crash faults from
	// partition faults in the drop economy.
	if to < 0 {
		to = n.lookup(m.To) // the receiver may have registered in flight
	}
	if to < 0 || !n.nodes[to].up() {
		n.counters.Inc("drop:dest-down", 1)
		n.traceDrop(m, "dest-down")
		return
	}
	if gen != n.gen {
		// Some link was removed while the frame was in flight; was it this
		// one?
		if !n.topo.HasEdge(m.From, m.To) {
			n.counters.Inc("drop:link-gone", 1)
			n.traceDrop(m, "link-gone")
			return
		}
		if n.removedAt[mkLinkKey(m.From, m.To)] > gen {
			// The link was torn down and re-added while the frame was in
			// flight: the frame traveled a link incarnation that no longer
			// exists. Jitter reordering made this reachable — a late frame
			// could otherwise slip across the healed link.
			n.counters.Inc("drop:stale-link", 1)
			n.traceDrop(m, "stale-link")
			return
		}
	}
	if n.corruptProb > 0 && n.engine.Rand().Float64() < n.corruptProb {
		// The frame arrives, its content does not: deliver Garbled so
		// the receiver's decode path sees malformed input.
		n.counters.Inc("drop:corrupt", 1)
		n.traceDrop(m, "corrupt")
		m.Payload = Garbled{}
	}
	if n.tracer != nil {
		n.tracer.Emit(trace.Event{
			T: int64(n.engine.Now()), Type: trace.EvMsgRecv,
			Node: m.To, Peer: m.From, Kind: m.Kind,
		})
	}
	n.nodes[to].h.HandleMessage(m)
}

// traceDrop emits a loss event tagged with its reason.
func (n *Network) traceDrop(m Message, reason string) {
	if n.tracer == nil {
		return
	}
	n.tracer.Emit(trace.Event{
		T: int64(n.engine.Now()), Type: trace.EvMsgDrop,
		Node: m.From, Peer: m.To, Kind: m.Kind, Aux: reason,
	})
}

// Broadcast sends a frame of the given kind to every live physical neighbor
// of from and returns the number of frames transmitted. It models a
// wireless local broadcast as individual unicasts (simulator-level
// simplification that preserves message counts per receiver).
func (n *Network) Broadcast(from ids.ID, kind string, payload any) int {
	sent := 0
	for _, u := range n.NeighborsOf(from) {
		if n.Send(Message{From: from, To: u, Kind: kind, Payload: payload}) {
			sent++
		}
	}
	return sent
}

// FailNode marks v down. Frames to or from v are dropped until RecoverNode.
func (n *Network) FailNode(v ids.ID) { n.setDown(v, true) }

// RecoverNode brings a failed node back up.
func (n *Network) RecoverNode(v ids.ID) { n.setDown(v, false) }

func (n *Network) setDown(v ids.ID, down bool) {
	s := &n.nodes[n.indexOf(v)]
	if s.down != down {
		s.down = down
		if down {
			n.ndown++
		} else {
			n.ndown--
		}
	}
}

// AddLink inserts a physical link (e.g. two radios moving into range).
func (n *Network) AddLink(u, v ids.ID) { n.topo.AddEdge(u, v) }

// RemoveLink removes a physical link. Frames already in flight across it
// are lost ("stale-link") even if the link is later re-added.
func (n *Network) RemoveLink(u, v ids.ID) {
	if n.unlink(u, v) {
		n.removedAt[mkLinkKey(u, v)] = n.gen
	}
}

// unlink removes a physical link and reports whether it existed. Every edge
// removal goes through here: counting it in gen sends the frames in flight
// through the full link checks on delivery. A link a Mobility process
// removes gets no removedAt record, so frames across it are "link-gone",
// and delivered if it comes back before they land.
func (n *Network) unlink(u, v ids.ID) bool {
	if !n.topo.RemoveEdge(u, v) {
		return false
	}
	n.gen++
	return true
}

// Counters tallies messages by kind. Kinds use a "proto:type" convention,
// e.g. "ssr:notify" or "isprp:flood".
type Counters struct {
	byKind map[string]int64
}

// NewCounters returns empty accounting.
func NewCounters() *Counters { return &Counters{byKind: make(map[string]int64)} }

// Inc adds delta transmissions of the given kind (0 registers the kind).
func (c *Counters) Inc(kind string, delta int64) { c.byKind[kind] += delta }

// Get returns the count for a kind.
func (c *Counters) Get(kind string) int64 { return c.byKind[kind] }

// Total returns the number of frames transmitted across all kinds,
// excluding the drop:* diagnostics.
func (c *Counters) Total() int64 {
	var t int64
	for kind, v := range c.byKind {
		if len(kind) >= 5 && kind[:5] == "drop:" {
			continue
		}
		t += v
	}
	return t
}

// TotalMatching returns the summed count over kinds for which match returns
// true.
func (c *Counters) TotalMatching(match func(kind string) bool) int64 {
	var t int64
	for kind, v := range c.byKind {
		if match(kind) {
			t += v
		}
	}
	return t
}

// Reset zeroes all counters.
func (c *Counters) Reset() { c.byKind = make(map[string]int64) }

// Snapshot returns a sorted, stable rendering of all counters for reports.
func (c *Counters) Snapshot() []KindCount {
	out := make([]KindCount, 0, len(c.byKind))
	for k, v := range c.byKind {
		out = append(out, KindCount{Kind: k, Count: v})
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Kind < out[j].Kind })
	return out
}

// KindCount is one row of a counter snapshot.
type KindCount struct {
	Kind  string
	Count int64
}

// String renders "kind=count".
func (kc KindCount) String() string { return fmt.Sprintf("%s=%d", kc.Kind, kc.Count) }
