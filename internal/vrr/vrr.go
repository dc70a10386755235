// Package vrr implements a Virtual Ring Routing analog with the paper's
// linearized bootstrap.
//
// VRR (Caesar et al., SIGCOMM'06) is SSR's sibling: it also organizes all
// nodes into a virtual ring ordered by identifier, but instead of source
// routes it installs *routing state along physical paths* — every node on
// the path between two virtual neighbors keeps a next-hop entry for that
// path (footnote 1 of §4: "There the virtual edges are the paths as
// represented by the routing table entries").
//
// Baseline VRR piggybacks the address of a representative (the numerically
// largest node) on its hello beacons to detect global inconsistency — the
// VRR analog of ISPRP's flood. The linearized variant reproduced here
// needs none of that: per §4, the neighbor notification messages *are* the
// path-setup messages ("For VRR the notification messages set up state
// along their forwarding path"). A node v1 that wants to introduce its
// virtual neighbors v2 and v3 to each other sends a setup for the new path
// (v2,v3) along its existing paths to v2 and to v3; every hop installs
// forwarding state for the new path (toward the far endpoint via v1), and
// the arrival of the setup at an endpoint doubles as the neighbor
// notification. Local consistency of the resulting line then implies
// global consistency, with no representative and no flooding.
//
// Data packets are routed greedily: each node forwards along the path
// whose far endpoint is virtually closest to the destination — the same
// rule as SSR, with path tables in place of route caches.
package vrr

import (
	"repro/internal/ids"
	"repro/internal/node"
	"repro/internal/phys"
	"repro/internal/sim"
	"repro/internal/trace"
)

// Message kinds for counter accounting.
const (
	KindSetup       = "vrr:setup"
	KindData        = "vrr:data"
	KindDiscover    = "vrr:discover"
	KindDiscoverAck = "vrr:discoverack"
	KindSetupAck    = "vrr:setupack"
)

// Config tunes a VRR node.
type Config struct {
	// TickInterval is the linearization maintenance period (default 16).
	TickInterval sim.Time
	// HelloInterval is the beacon period for neighbor discovery (default 8).
	HelloInterval sim.Time
	// CloseRing enables the §4 discovery messages that establish the wrap
	// path between the extremal nodes, turning the line into the ring.
	CloseRing bool
}

func (c Config) withDefaults() Config {
	if c.TickInterval <= 0 {
		c.TickInterval = 16
	}
	if c.HelloInterval <= 0 {
		c.HelloInterval = 8
	}
	return c
}

// PathID names a virtual edge: the two endpoints (A < B) and a sequence
// number so re-established paths between the same endpoints stay distinct.
type PathID struct {
	A, B ids.ID
	Seq  uint32
}

// Other returns the endpoint that is not v (v must be A or B).
func (p PathID) Other(v ids.ID) ids.ID {
	if v == p.A {
		return p.B
	}
	return p.A
}

// pathLess is a deterministic total order on path ids for tie-breaking.
func pathLess(a, b PathID) bool {
	if a.A != b.A {
		return a.A < b.A
	}
	if a.B != b.B {
		return a.B < b.B
	}
	return a.Seq < b.Seq
}

// pathEntry is one node's forwarding state for a path: the physical next
// hop toward each endpoint (absent for the endpoint itself).
type pathEntry struct {
	toA, toB       ids.ID
	hasToA, hasToB bool
	// confirmed marks paths this node may rely on as an endpoint: physical
	// links, and paths whose setup actually arrived here. A pivot's own
	// freshly-created path is unconfirmed — one of its halves may have died
	// in flight — so it is never used as a carrier for further setups or as
	// a greedy routing commitment; re-introduction repairs dead halves.
	confirmed bool
}

func (e *pathEntry) next(p PathID, toward ids.ID) (ids.ID, bool) {
	if toward == p.A {
		return e.toA, e.hasToA
	}
	return e.toB, e.hasToB
}

// setupPayload installs path state hop by hop. The message travels from the
// pivot (the introducing node) toward Target along the pivot's existing
// path ViaPath; each hop sets next-hop state for NewPath: toward Target in
// the travel direction, toward the far endpoint in the reverse direction.
type setupPayload struct {
	NewPath PathID
	Target  ids.ID // the endpoint this setup half travels to
	ViaPath PathID // the existing path it rides along
	PrevHop ids.ID // physical sender of this frame
}

// setupAckPayload confirms a freshly set-up path end to end: each endpoint
// sends one across the full path on setup arrival, and an endpoint marks
// the path confirmed only when the OTHER side's ack arrives — which proves
// both halves' transit state is fully installed. A setup arrival alone
// proves only the half the setup traveled.
type setupAckPayload struct {
	Path    PathID
	Toward  ids.ID // the endpoint this ack travels to
	PrevHop ids.ID
	Hops    int
}

// dataPayload is an application packet.
type dataPayload struct {
	Origin, Dst ids.ID
	Hops        int
	Body        any
	// Path and Toward are the current forwarding commitment; re-chosen at
	// every path endpoint.
	Path   PathID
	Toward ids.ID
}

// Delivery records a data packet that reached its destination.
type Delivery struct {
	Origin, Dst ids.ID
	Hops        int
	Body        any
}

type pairKey struct{ Low, High ids.ID }

// provKey names an in-flight discovery whose endpoint is not yet known;
// hops store the reverse (toward-origin) next hop under this key until the
// acknowledgment converts it into real path state.
type provKey struct {
	Origin ids.ID
	Seq    uint32
}

// discoverPayload travels greedily toward the extremal node on the given
// side of the origin, leaving provisional reverse state at every hop. Like
// data packets it commits to one path at a time (Path/Toward) and re-decides
// only at the committed endpoint — per-hop re-decision has no monotone
// invariant and can loop forever. Hops is a safety TTL.
type discoverPayload struct {
	Origin  ids.ID
	Dir     ids.Dir // Left: clockwise, seeking the origin's ring predecessor
	Seq     uint32
	PrevHop ids.ID
	Path    PathID
	Toward  ids.ID
	Hops    int
}

// discoverTTL bounds a discovery's physical lifetime.
const discoverTTL = 4096

// discoverAckPayload walks the provisional state back to the origin,
// converting it into real path state for the wrap path.
type discoverAckPayload struct {
	Path    PathID // endpoints: origin and the discovered extremal node
	Key     provKey
	Dir     ids.Dir
	PrevHop ids.ID
}

// Node is one VRR participant.
type Node struct {
	id  ids.ID
	net phys.Transport
	cfg Config

	beacon *phys.Beaconer
	paths  map[PathID]*pathEntry
	// vset is the set of virtual neighbors: endpoints of paths where we are
	// the other endpoint. Only link and unlink change it.
	vset ids.Set

	introduced map[pairKey]sim.Time
	attempts   map[pairKey]uint
	seq        uint32
	// prov is the toward-origin hop of every discovery seen, kept from its
	// first visit.
	prov map[provKey]ids.ID

	// Ring-closure state (rules in node.Wrap). The wrap path is ordinary
	// path state and its far end a vset member like any other, so nothing
	// is kept per partner.
	wrap node.Wrap[struct{}]

	// OnDeliver, if set, observes data packets addressed to this node.
	OnDeliver func(d Delivery)
	// Failed counts packets dropped for lack of a virtually closer path.
	Failed int

	stopped bool
}

// NewNode creates and registers a VRR node. Call Start to begin activity.
func NewNode(net phys.Transport, id ids.ID, cfg Config) *Node {
	cfg = cfg.withDefaults()
	n := &Node{
		id:         id,
		net:        net,
		cfg:        cfg,
		paths:      make(map[PathID]*pathEntry),
		vset:       ids.NewSet(),
		introduced: make(map[pairKey]sim.Time),
		attempts:   make(map[pairKey]uint),
		prov:       make(map[provKey]ids.ID),
		wrap:       node.NewWrap[struct{}](id),
	}
	n.beacon = phys.NewBeaconer(net, id, cfg.HelloInterval)
	n.beacon.OnNewNeighbor = func(u ids.ID) { n.addPhysicalNeighbor(u, "beacon") }
	// A lease verdict beats the beacon MissLimit expiry and, unlike it, also
	// names the broken *transit* paths through the dead neighbor.
	node.Attach(net, id, n.handle, n.onLease)
	return n
}

// onLease consumes a failure-detector verdict about physical neighbor peer.
// Down: every path whose physical next hop is the dead neighbor is broken —
// drop its forwarding state now and shrink the vset to endpoints still
// reachable, so linearization stops introducing pairs through the dead
// link; periodic re-introduction rebuilds survivors over live links.
// Up: reinstall the trivial 1-hop path (E_v := E_p for the healed link).
func (n *Node) onLease(peer ids.ID, up bool) {
	if n.stopped {
		return
	}
	if up {
		n.addPhysicalNeighbor(peer, "lease-up")
		return
	}
	for p, e := range n.paths {
		if (e.hasToA && e.toA == peer) || (e.hasToB && e.toB == peer) {
			delete(n.paths, p)
		}
	}
	for _, u := range n.vset.Sorted() {
		if paths, _ := n.PathsBetween(n.id, u); paths == 0 {
			n.unlink(u, "lease-down")
		}
	}
}

// link is the one way into E_v: u joins the vset, emitting EvEdgeAdd if new.
func (n *Node) link(u ids.ID, cause string) {
	if n.vset.Add(u) {
		node.Trace(n.net, n.id, trace.EvEdgeAdd, u, cause)
	}
}

// unlink is the one way out of E_v: if u is in, it leaves the vset and any
// wrap side it held, emitting EvEdgeDelegate.
func (n *Node) unlink(u ids.ID, cause string) {
	if n.vset.Remove(u) {
		n.wrap.Forget(u)
		node.Trace(n.net, n.id, trace.EvEdgeDelegate, u, cause)
	}
}

// adoptWrap installs partner on the given ring side if it beats the
// incumbent (node.Wrap.Adopt) and links it, as the far end of a real path.
func (n *Node) adoptWrap(side ids.Dir, partner ids.ID) {
	if n.wrap.Adopt(side, partner, struct{}{}) {
		node.Trace(n.net, n.id, trace.EvRingClosed, partner, "wrap-"+side.String())
	}
	n.link(partner, "wrap")
}

// ID returns the node identifier.
func (n *Node) ID() ids.ID { return n.id }

// VirtualNeighbors returns the current virtual neighbor set, ascending.
func (n *Node) VirtualNeighbors() []ids.ID { return n.vset.Sorted() }

// PathCount returns the number of path-table entries at this node — VRR's
// router-state metric.
func (n *Node) PathCount() int { return len(n.paths) }

// Representative returns the largest address heard via hello piggyback.
func (n *Node) Representative() ids.ID { return n.beacon.Representative() }

// Start begins beaconing and the linearization tick.
func (n *Node) Start(jitter sim.Time) {
	n.beacon.Start()
	node.Maintain(n.net, n.id, n.cfg.TickInterval, jitter, &n.stopped, n.tick)
}

// Stop halts periodic activity.
func (n *Node) Stop() {
	n.stopped = true
	n.beacon.Stop()
}

// addPhysicalNeighbor installs the trivial 1-hop path to a discovered
// physical neighbor (E_v := E_p).
func (n *Node) addPhysicalNeighbor(u ids.ID, cause string) {
	p := PathID{A: n.id, B: u}
	if p.A > p.B {
		p.A, p.B = p.B, p.A
	}
	if _, ok := n.paths[p]; ok {
		return
	}
	e := &pathEntry{confirmed: true}
	if p.A == n.id {
		e.toB, e.hasToB = u, true
	} else {
		e.toA, e.hasToA = u, true
	}
	n.paths[p] = e
	n.link(u, cause)
}

func (n *Node) tick() {
	n.linearizeSide(ids.Left)
	n.linearizeSide(ids.Right)
	if n.cfg.CloseRing {
		n.wrap.Tick(n.sideEmpty, n.knownIDs, n.sendDiscover)
	}
}

// pathTo returns a confirmed path where we are one endpoint and v the
// other, preferring the deterministically smallest id.
func (n *Node) pathTo(v ids.ID) (PathID, bool) {
	var best PathID
	found := false
	for p, e := range n.paths {
		if !e.confirmed {
			continue
		}
		if (p.A == n.id && p.B == v) || (p.B == n.id && p.A == v) {
			if !found || pathLess(p, best) {
				best, found = p, true
			}
		}
	}
	return best, found
}

// linearizeSide introduces every consecutive pair of virtual neighbors on
// one side — Algorithm 1's chain, realized as VRR path setups.
func (n *Node) linearizeSide(d ids.Dir) {
	var side []ids.ID
	for _, u := range n.vset.Sorted() {
		if ids.DirOf(n.id, u) == d {
			side = append(side, u)
		}
	}
	for i := 0; i+1 < len(side); i++ {
		n.introduce(side[i], side[i+1])
	}
}

// introduce sets up the new path (a,b) through us: one setup half travels
// to a along our path to a, the other to b along our path to b. Each hop
// of each half installs forwarding state; arrival notifies the endpoint of
// its new virtual neighbor.
func (n *Node) introduce(a, b ids.ID) {
	key := pairKey{Low: a, High: b}
	now := n.net.Engine().Now()
	// Exponential backoff per pair: a stable pair is re-set-up with
	// geometrically growing periods, so long runs accumulate only
	// logarithmically many repair paths instead of one per fixed interval.
	backoff := sim.Time(32<<min(n.attempts[key], 8)) * n.cfg.TickInterval
	if last, seen := n.introduced[key]; seen && now-last < backoff {
		return
	}
	n.attempts[key]++
	pa, okA := n.pathTo(a)
	pb, okB := n.pathTo(b)
	if !okA || !okB {
		return
	}
	// Every introduction gets a fresh sequence number: a setup must never
	// overwrite hop state of an earlier setup that traveled a different
	// carrier path, or forwarding state becomes an inconsistent mix of two
	// routes. Dead setup halves are repaired by the periodic
	// re-introduction (every 32 ticks), which simply builds a fresh path.
	n.seq++
	newPath := PathID{A: a, B: b, Seq: n.seq}
	if newPath.A > newPath.B {
		newPath.A, newPath.B = newPath.B, newPath.A
	}
	n.introduced[key] = now
	// Install our own pivot state: toward a via pa, toward b via pb.
	entry := &pathEntry{}
	if nextA, ok := n.paths[pa].next(pa, a); ok {
		if newPath.A == a {
			entry.toA, entry.hasToA = nextA, true
		} else {
			entry.toB, entry.hasToB = nextA, true
		}
	}
	if nextB, ok := n.paths[pb].next(pb, b); ok {
		if newPath.A == b {
			entry.toA, entry.hasToA = nextB, true
		} else {
			entry.toB, entry.hasToB = nextB, true
		}
	}
	n.paths[newPath] = entry
	n.sendSetupHalf(newPath, a, pa)
	n.sendSetupHalf(newPath, b, pb)
}

// sendSetupHalf launches one setup half toward target along via.
func (n *Node) sendSetupHalf(newPath PathID, target ids.ID, via PathID) {
	next, ok := n.paths[via].next(via, target)
	if !ok {
		return
	}
	n.net.Send(phys.Message{From: n.id, To: next, Kind: KindSetup, Payload: setupPayload{
		NewPath: newPath, Target: target, ViaPath: via, PrevHop: n.id,
	}})
}

// handle is the raw frame dispatcher.
func (n *Node) handle(m phys.Message) {
	switch m.Kind {
	case phys.BeaconKind:
		n.beacon.HandleHello(m)
	case KindSetup:
		n.handleSetup(m)
	case KindData:
		n.handleData(m)
	case KindDiscover:
		n.handleDiscover(m)
	case KindDiscoverAck:
		n.handleDiscoverAck(m)
	case KindSetupAck:
		n.handleSetupAck(m)
	}
}

// handleSetupAck forwards a setup acknowledgment along the committed path;
// at the destination endpoint it marks the path confirmed (the ack crossed
// every hop, so both halves are fully installed).
func (n *Node) handleSetupAck(m phys.Message) {
	ap, ok := m.Payload.(setupAckPayload)
	if !ok {
		return
	}
	ap.Hops++
	if ap.Hops > discoverTTL {
		return
	}
	e, exists := n.paths[ap.Path]
	if !exists {
		return
	}
	if ap.Toward == n.id {
		e.confirmed = true
		n.link(ap.Path.Other(n.id), "setup-ack")
		return
	}
	next, okN := e.next(ap.Path, ap.Toward)
	if !okN {
		return
	}
	n.net.Send(phys.Message{From: n.id, To: next, Kind: KindSetupAck, Payload: setupAckPayload{
		Path: ap.Path, Toward: ap.Toward, PrevHop: n.id, Hops: ap.Hops,
	}})
}

// --- Ring closure (§4 discovery, VRR flavor) -------------------------------

// sideEmpty reports whether the vset has no member on the given side.
func (n *Node) sideEmpty(d ids.Dir) bool {
	for u := range n.vset {
		if ids.DirOf(n.id, u) == d {
			return false
		}
	}
	return true
}

// knownIDs lists every endpoint the path table names, transit paths
// included: the candidates that can beat a wrap partner.
func (n *Node) knownIDs() []ids.ID {
	known := make([]ids.ID, 0, 2*len(n.paths))
	for p := range n.paths {
		known = append(known, p.A, p.B)
	}
	return known
}

// bestEndpoint returns the confirmed own-endpoint path whose far endpoint
// minimizes the metric, excluding the given origin. Only confirmed paths
// where this node is an endpoint qualify: their transit is known-installed,
// so a commitment to them cannot strand the message.
func (n *Node) bestEndpoint(exclude ids.ID, metric func(ids.ID) uint64) (PathID, ids.ID, bool) {
	var bestPath PathID
	var bestEP ids.ID
	found := false
	for p, e := range n.paths {
		if !e.confirmed || (p.A != n.id && p.B != n.id) {
			continue
		}
		ep := p.Other(n.id)
		if ep == n.id || ep == exclude {
			continue
		}
		if _, okN := e.next(p, ep); !okN {
			continue
		}
		if !found || metric(ep) < metric(bestEP) ||
			(metric(ep) == metric(bestEP) && pathLess(p, bestPath)) {
			bestPath, bestEP, found = p, ep, true
		}
	}
	return bestPath, bestEP, found
}

func (n *Node) sendDiscover(side ids.Dir) {
	metric := node.RingMetric(n.id, side)
	via, ep, ok := n.bestEndpoint(n.id, metric)
	if !ok {
		return
	}
	n.seq++
	key := provKey{Origin: n.id, Seq: n.seq}
	n.prov[key] = n.id // sentinel: we are the origin
	next, okN := n.paths[via].next(via, ep)
	if !okN {
		return
	}
	n.net.Send(phys.Message{From: n.id, To: next, Kind: KindDiscover, Payload: discoverPayload{
		Origin: n.id, Dir: side, Seq: key.Seq, PrevHop: n.id,
		Path: via, Toward: ep, Hops: 1,
	}})
}

func (n *Node) handleDiscover(m phys.Message) {
	dp, ok := m.Payload.(discoverPayload)
	if !ok {
		return
	}
	dp.Hops++
	if dp.Hops > discoverTTL {
		return
	}
	// The first visit's reverse hop is kept: a discovery whose committed
	// paths cross this node twice is acknowledged along a tree back to its
	// origin, with the loop cut out. Overwriting it on the second visit
	// would send the ack round the loop for ever (acks carry no hop bound).
	key := provKey{Origin: dp.Origin, Seq: dp.Seq}
	if _, seen := n.prov[key]; !seen {
		n.prov[key] = dp.PrevHop
	}
	// Mid-transit: keep following the committed path, even through the
	// origin itself.
	if dp.Toward != n.id {
		if e, exists := n.paths[dp.Path]; exists {
			if next, okN := e.next(dp.Path, dp.Toward); okN {
				n.net.Send(phys.Message{From: n.id, To: next, Kind: KindDiscover, Payload: discoverPayload{
					Origin: dp.Origin, Dir: dp.Dir, Seq: dp.Seq, PrevHop: n.id,
					Path: dp.Path, Toward: dp.Toward, Hops: dp.Hops,
				}})
				return
			}
		}
		// Committed path broken here: the discovery dies; the origin will
		// re-probe on its next refresh.
		return
	}
	if dp.Origin == n.id {
		return
	}
	// At a committed endpoint: re-decide with strict metric improvement so
	// the endpoint sequence is monotone and the walk terminates.
	metric := node.RingMetric(dp.Origin, dp.Dir)
	if via, ep, found := n.bestEndpoint(dp.Origin, metric); found && metric(ep) < metric(n.id) {
		if next, okN := n.paths[via].next(via, ep); okN {
			n.net.Send(phys.Message{From: n.id, To: next, Kind: KindDiscover, Payload: discoverPayload{
				Origin: dp.Origin, Dir: dp.Dir, Seq: dp.Seq, PrevHop: n.id,
				Path: via, Toward: ep, Hops: dp.Hops,
			}})
			return
		}
	}
	// We are the sought extremal node: adopt the origin as wrap partner and
	// acknowledge along the provisional reverse state, converting it into
	// the real wrap path.
	wrap := PathID{A: dp.Origin, B: n.id, Seq: dp.Seq}
	if wrap.A > wrap.B {
		wrap.A, wrap.B = wrap.B, wrap.A
	}
	e := &pathEntry{confirmed: true}
	if dp.Origin == wrap.A {
		e.toA, e.hasToA = dp.PrevHop, true
	} else {
		e.toB, e.hasToB = dp.PrevHop, true
	}
	n.paths[wrap] = e
	side := ids.Left
	if dp.Dir == ids.Left {
		side = ids.Right // a clockwise discovery's origin is our ring successor
	}
	n.adoptWrap(side, dp.Origin)
	n.net.Send(phys.Message{From: n.id, To: dp.PrevHop, Kind: KindDiscoverAck, Payload: discoverAckPayload{
		Path: wrap, Key: key, Dir: dp.Dir, PrevHop: n.id,
	}})
}

func (n *Node) handleDiscoverAck(m phys.Message) {
	da, ok := m.Payload.(discoverAckPayload)
	if !ok {
		return
	}
	toward, known := n.prov[da.Key]
	if !known {
		return
	}
	endpoint := da.Path.Other(da.Key.Origin)
	e := n.paths[da.Path]
	if e == nil {
		e = &pathEntry{}
		n.paths[da.Path] = e
	}
	// Toward the discovered endpoint: the hop the ack came from.
	if endpoint == da.Path.A {
		e.toA, e.hasToA = da.PrevHop, true
	} else {
		e.toB, e.hasToB = da.PrevHop, true
	}
	if da.Key.Origin == n.id {
		e.confirmed = true
		// Discovery complete: adopt the endpoint as wrap partner.
		n.adoptWrap(da.Dir, endpoint)
		return
	}
	// Toward the origin: the provisional hop; forward the ack along it.
	if da.Key.Origin == da.Path.A {
		e.toA, e.hasToA = toward, true
	} else {
		e.toB, e.hasToB = toward, true
	}
	n.net.Send(phys.Message{From: n.id, To: toward, Kind: KindDiscoverAck, Payload: discoverAckPayload{
		Path: da.Path, Key: da.Key, Dir: da.Dir, PrevHop: n.id,
	}})
}

func (n *Node) handleSetup(m phys.Message) {
	sp, ok := m.Payload.(setupPayload)
	if !ok {
		return
	}
	far := sp.NewPath.Other(sp.Target)
	// Install state for the new path at this hop: toward the far endpoint
	// through the physical node this frame came from.
	e := n.paths[sp.NewPath]
	if e == nil {
		e = &pathEntry{}
		n.paths[sp.NewPath] = e
	}
	if far == sp.NewPath.A {
		e.toA, e.hasToA = sp.PrevHop, true
	} else {
		e.toB, e.hasToB = sp.PrevHop, true
	}
	if sp.Target == n.id {
		// Arrival doubles as the neighbor notification (§4). It proves only
		// the half the setup traveled, so the path is NOT yet confirmed;
		// instead acknowledge end to end — the far endpoint's ack crossing
		// the whole path is what confirms it for us (and ours for them).
		n.link(far, "setup")
		if next, okN := e.next(sp.NewPath, far); okN {
			n.net.Send(phys.Message{From: n.id, To: next, Kind: KindSetupAck, Payload: setupAckPayload{
				Path: sp.NewPath, Toward: far, PrevHop: n.id, Hops: 1,
			}})
		}
		return
	}
	// Forward along the carrier path and record the forward direction too.
	viaEntry, exists := n.paths[sp.ViaPath]
	if !exists {
		return // carrier path unknown here; setup half dies
	}
	next, okNext := viaEntry.next(sp.ViaPath, sp.Target)
	if !okNext {
		return
	}
	if sp.Target == sp.NewPath.A {
		e.toA, e.hasToA = next, true
	} else {
		e.toB, e.hasToB = next, true
	}
	n.net.Send(phys.Message{From: n.id, To: next, Kind: KindSetup, Payload: setupPayload{
		NewPath: sp.NewPath, Target: sp.Target, ViaPath: sp.ViaPath, PrevHop: n.id,
	}})
}

// SendData launches a packet toward dst via greedy endpoint selection.
func (n *Node) SendData(dst ids.ID, body any) bool {
	if dst == n.id {
		if n.OnDeliver != nil {
			n.OnDeliver(Delivery{Origin: n.id, Dst: dst, Body: body})
		}
		return true
	}
	return n.forwardData(dataPayload{Origin: n.id, Dst: dst, Body: body})
}

func (n *Node) handleData(m phys.Message) {
	dp, ok := m.Payload.(dataPayload)
	if !ok {
		return
	}
	dp.Hops++
	if dp.Hops > discoverTTL {
		n.Failed++
		return
	}
	if dp.Dst == n.id {
		if n.OnDeliver != nil {
			n.OnDeliver(Delivery{Origin: dp.Origin, Dst: dp.Dst, Hops: dp.Hops, Body: dp.Body})
		}
		return
	}
	// If we are the committed endpoint (or the committed path is unknown
	// here), re-choose greedily; otherwise continue along the committed
	// path.
	if dp.Toward != n.id {
		if e, exists := n.paths[dp.Path]; exists {
			if next, okN := e.next(dp.Path, dp.Toward); okN {
				n.net.Send(phys.Message{From: n.id, To: next, Kind: KindData, Payload: dp})
				return
			}
		}
	}
	if !n.forwardData(dp) {
		n.Failed++
	}
}

// forwardData picks the path whose far endpoint is virtually closest to the
// destination — VRR's greedy rule — and commits the packet to it.
func (n *Node) forwardData(dp dataPayload) bool {
	metric := func(x ids.ID) uint64 { return ids.RingDist(x, dp.Dst) }
	via, ep, found := n.bestEndpoint(n.id, metric)
	if !found || metric(ep) >= metric(n.id) {
		return false
	}
	dp.Path, dp.Toward = via, ep
	next, _ := n.paths[via].next(via, ep)
	return n.net.Send(phys.Message{From: n.id, To: next, Kind: KindData, Payload: dp})
}

// --- Cluster driver --------------------------------------------------------

// Cluster runs VRR over a network — the shared driver of package node —
// with a convergence oracle.
type Cluster struct {
	node.Cluster[*Node]
	cfg Config
}

// NewCluster creates one VRR node per topology node and starts them.
func NewCluster(net phys.Transport, cfg Config) *Cluster {
	c := &Cluster{cfg: cfg}
	c.Cluster = node.NewCluster(net, c.Consistent,
		func(v ids.ID) *Node { return NewNode(net, v, cfg) },
		func(_ ids.ID, n *Node) { n.Start(sim.Time(net.Engine().Rand().Int63n(8))) })
	return c
}

// Consistent reports whether every node's vset holds both its line
// neighbors (two-sided edges: VRR has no reverse-neighbor mechanism, so
// routing needs each node to know its own) and, with ring closure, the
// extremal nodes hold each other as wrap partners. Every vset entry is a
// member, so this implies the virtual graph embeds the sorted line.
func (c *Cluster) Consistent() bool {
	lo, hi, ok := c.KnowsLine(func(n *Node, u ids.ID) bool { return n.vset.Has(u) })
	if !ok || !c.cfg.CloseRing || len(c.Nodes) < 3 {
		return ok
	}
	return node.AtExtremes(&lo.wrap, &hi.wrap)
}

// StateSummary returns the per-node path-table sizes — the router-state
// metric the paper's future work calls out for VRR.
func (c *Cluster) StateSummary() []int {
	out := make([]int, 0, len(c.Nodes))
	for _, n := range c.Nodes {
		out = append(out, n.PathCount())
	}
	return out
}

// PathsBetween counts path entries at this node whose endpoints are exactly
// {x, y} (diagnostic accessor).
func (n *Node) PathsBetween(x, y ids.ID) (total, confirmed int) {
	for p, e := range n.paths {
		if (p.A == x && p.B == y) || (p.A == y && p.B == x) {
			total++
			if e.confirmed {
				confirmed++
			}
		}
	}
	return total, confirmed
}
