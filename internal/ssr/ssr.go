// Package ssr implements Scalable Source Routing: the network-layer routing
// protocol whose virtual ring the paper bootstraps with linearization.
//
// Each node keeps a route cache (package cache) whose entries — source
// routes — are the virtual edges E_v of §4. The cache is initialized from
// the physical neighborhood (E_v := E_p) and evolves through the
// message-level linearization protocol of §4:
//
//   - Neighbor notification: a node v1 with more than one right (left)
//     neighbor picks the two farthest, v2 < v3, and notifies each of the
//     other, enclosing its own source routes; v2 composes
//     route(v2→v3) = reverse(route(v1→v2)) ++ route(v1→v3) and enters it
//     into its cache (the edge {v2,v3} enters E_v).
//   - Acknowledgment: each notified node acknowledges; when v1 holds both
//     acks it may tear down its edge to the farther neighbor (teardown
//     message, so the other endpoint drops its state too). With teardown
//     enabled the protocol behaves like pure linearization; without it (or
//     with a Bounded cache) like linearization with memory/LSN.
//   - Discovery: a node with an empty left neighbor set sends a clockwise
//     discovery message, greedily routed through the virtual structure,
//     until it reaches the node with an empty right neighbor set, which
//     acknowledges — establishing the wrap edge that turns the line into
//     SSR's virtual ring. The counter-clockwise mirror runs for redundancy.
//     Wrap state sits beside the route cache and never hides a member of
//     E_v from linearization (rules in node.Wrap).
//
// Data routing follows §1's greedy rule: the current node picks from its
// cache the intermediate destination virtually closest to the packet's
// final destination (tie: physically closest), appends the according source
// route, and forwards; the process repeats at every intermediate
// destination. Once the ring is globally consistent this succeeds for every
// source/destination pair — experiment E7 verifies exactly that.
//
// For the E6 comparison the same cluster driver can bootstrap with ISPRP
// (package isprp) instead; message counters are shared via phys.Counters.
package ssr

import (
	"cmp"
	"slices"

	"repro/internal/cache"
	"repro/internal/ids"
	"repro/internal/node"
	"repro/internal/phys"
	"repro/internal/sim"
	"repro/internal/sroute"
	"repro/internal/trace"
)

// Message kinds for counter accounting.
const (
	KindNotify      = "ssr:notify"
	KindAck         = "ssr:ack"
	KindTeardown    = "ssr:teardown"
	KindDiscover    = "ssr:discover"
	KindDiscoverAck = "ssr:discoverack"
	KindData        = "ssr:data"
	KindKeepalive   = "ssr:keepalive"
	KindKeepAck     = "ssr:keepack"
)

// Config tunes an SSR node.
type Config struct {
	// TickInterval is the period of the linearization maintenance tick
	// (default 16). One pair per side is processed per tick.
	TickInterval sim.Time
	// CacheMode selects Bounded (LSN shortcut structure, the SSR default
	// per §4) or Unbounded (linearization with memory) caches.
	CacheMode cache.Mode
	// Teardown enables the §4 optional edge removal after both acks.
	Teardown bool
	// CloseRing enables the discovery messages that close the virtual ring.
	CloseRing bool
	// BothDirections sends the counter-clockwise discovery too (§4:
	// "It should do so for sake of redundancy."). Ablation E10.
	BothDirections bool
}

func (c Config) withDefaults() Config {
	if c.TickInterval <= 0 {
		c.TickInterval = 16
	}
	return c
}

// notifyPayload carries the route from the notifier to the *other* new
// neighbor; the receiver composes its own route by appending it to the
// reversed packet route.
type notifyPayload struct {
	OtherRoute sroute.Route
	Pair       pairKey
}

// ackPayload identifies the pending pair being acknowledged.
type ackPayload struct {
	Pair pairKey
}

// discoverPayload accumulates the virtual-hop path from the discovery
// origin; each greedy segment extends RouteFromOrigin.
type discoverPayload struct {
	Origin          ids.ID
	Dir             ids.Dir // Left: clockwise (seeking the max node)
	RouteFromOrigin sroute.Route
}

// discoverAckPayload returns the origin→endpoint route to the origin,
// tagged with the direction of the discovery it answers.
type discoverAckPayload struct {
	RouteFromOrigin sroute.Route
	Dir             ids.Dir
}

// dataPayload is an application packet riding SSR's greedy routing.
type dataPayload struct {
	Origin, Dst ids.ID
	Hops        int // physical transmissions so far
	Segments    int // greedy intermediate-destination hops so far
	Body        any
}

// Delivery records a data packet that reached its destination.
type Delivery struct {
	Origin, Dst ids.ID
	Hops        int // total physical transmissions used
	Segments    int // greedy segments used
	Body        any
}

// pairKey names one notification operation (v1, side, v2, v3).
type pairKey struct {
	Low, High ids.ID // the two neighbors being introduced, Low < High
}

// revEntry is one reverse-neighbor record.
type revEntry struct {
	id    ids.ID       // the reverse neighbor
	route sroute.Route // us -> the reverse neighbor
	at    sim.Time     // last refresh
}

// introOp is the last introduction of a pair: when its notifications went
// out, which acks came back, and what completing it tears down. It is
// pending while an ack is missing and it is younger than pendingFor ticks;
// the re-introduction window and prune read the same at, so no timer
// expires it and no older op can complete or block a newer one.
type introOp struct {
	at              sim.Time
	farther         ids.ID // the neighbor whose edge v1 tears down
	ackLow, ackHigh bool
	tear            bool // whether this op removes the farther edge
}

// Node is one SSR participant.
type Node struct {
	id      ids.ID
	net     phys.Transport
	courier *phys.Courier
	cfg     Config

	rc     *cache.Cache
	intros map[pairKey]introOp
	// revNbrs tracks reverse neighbors: nodes known to cache a route to us
	// (we hear their notifications), with the reverse route and the last
	// refresh time. §4 makes the edges of E_v undirected; with Bounded
	// caches a node may evict a route while the other endpoint retains the
	// edge, and the retaining side's notifications keep the edge visible
	// here. Without this, close identifier pairs that every third party
	// collapses into one interval slot could never be introduced. Ascending
	// by id.
	revNbrs []revEntry
	// tornDown tombstones partners that were deliberately removed (§4
	// teardown) or declared dead by the failure detector, mapping to the
	// tombstone's expiry time. Ambient traffic (keepalives, overheard
	// routes, stale third-party introductions) must not resurrect such an
	// edge: teardown mode would never quiesce, and gossip about a dead node
	// could circulate indefinitely.
	tornDown map[ids.ID]sim.Time
	// lastHeard is the failure detector's evidence: the last time any
	// packet from each cached destination arrived. Keepalives are
	// acknowledged, so a live two-way route refreshes this every keepalive
	// period; destinations silent for several periods are purged (churn:
	// dead nodes or dead intermediate hops). Keyed by exactly the cached
	// destinations: add and drop keep the two in step.
	lastHeard map[ids.ID]sim.Time
	// rejected lists the physical neighbours whose direct route lost the
	// Bounded slot contest in seed since the last tick, which delegates
	// each to the holder of its slot (DESIGN §5 finding 8).
	rejected []ids.ID

	// Scratch, reused from packet to packet: back holds the reversed route
	// of the packet being handled (learn never keeps its argument), line
	// the result of lineNeighbors.
	back sroute.Route
	line []ids.ID

	// Ring closure state (rules in node.Wrap): the wrap partners and the
	// source routes to them. Wrap routes are stored here, not in the route
	// cache, because the cache's interval slots may be contested by
	// ring-far but line-near nodes; the wrap edge must survive regardless.
	wrap node.Wrap[sroute.Route]

	// OnDeliver, if set, observes data packets addressed to this node.
	OnDeliver func(d Delivery)
	// Failed counts data packets this node had to drop for lack of any
	// virtually closer candidate (routing failure).
	Failed int

	stopped bool
	ticks   int64
}

// NewNode creates and registers an SSR node. Call Start to begin activity.
func NewNode(net phys.Transport, id ids.ID, cfg Config) *Node {
	cfg = cfg.withDefaults()
	n := &Node{
		id:        id,
		net:       net,
		cfg:       cfg,
		rc:        cache.New(id, cfg.CacheMode),
		intros:    make(map[pairKey]introOp),
		tornDown:  make(map[ids.ID]sim.Time),
		lastHeard: make(map[ids.ID]sim.Time),
		wrap:      node.NewWrap[sroute.Route](id),
	}
	n.courier = phys.NewCourier(net, id)
	n.courier.OnDeliver = n.deliver
	n.courier.OnForward = n.overhear
	node.Attach(net, id, func(m phys.Message) { n.courier.Handle(m) }, n.onLease)
	return n
}

// onLease consumes a failure-detector verdict about physical neighbor peer.
// Down: every cached route whose first hop crosses the dead link is
// unusable — purge it now instead of waiting out keepalive silence, and
// tombstone the peer so gossip cannot resurrect the direct edge while it is
// dead. Up: clear the tombstone and re-seed the direct edge (E_v := E_p for
// the healed link).
func (n *Node) onLease(peer ids.ID, up bool) {
	if n.stopped {
		return
	}
	if up {
		n.seed("lease-up", peer)
		return
	}
	for _, dst := range n.rc.Destinations() {
		if n.rc.Route(dst).Via(peer) {
			n.drop(dst, "lease-down")
		}
	}
	n.revNbrs = slices.DeleteFunc(n.revNbrs, func(e revEntry) bool { return e.route.Via(peer) })
	for _, d := range [2]ids.Dir{ids.Left, ids.Right} {
		if p, ok := n.wrap.Partner(d); ok && (p == peer || n.wrap.State(d).Via(peer)) {
			n.wrap.Drop(d)
		}
	}
	n.tombstone(peer, deadAfter)
}

// ID returns the node identifier.
func (n *Node) ID() ids.ID { return n.id }

// Cache exposes the route cache for inspection by experiments.
func (n *Node) Cache() *cache.Cache { return n.rc }

// Successor returns this node's believed ring successor (the nearest right
// cache neighbor, or the wrap partner for the maximum node).
func (n *Node) Successor() (ids.ID, bool) { return n.ringNeighbor(ids.Right) }

// Predecessor returns this node's believed ring predecessor.
func (n *Node) Predecessor() (ids.ID, bool) { return n.ringNeighbor(ids.Left) }

// ringNeighbor is the nearest cache neighbor on the given side, or that
// side's wrap partner when the side is empty.
func (n *Node) ringNeighbor(side ids.Dir) (ids.ID, bool) {
	if v, ok := n.rc.Nearest(side); ok {
		return v, true
	}
	return n.wrap.Partner(side)
}

// WrapPartners returns the established ring-closure partners.
func (n *Node) WrapPartners() (left, right ids.ID, hasLeft, hasRight bool) {
	left, hasLeft = n.wrap.Partner(ids.Left)
	right, hasRight = n.wrap.Partner(ids.Right)
	return
}

// VirtualNeighbors returns the cached route destinations, ascending: this
// node's share of the virtual edge set E_v.
func (n *Node) VirtualNeighbors() []ids.ID { return n.rc.Destinations() }

// Start seeds the cache with the physical neighborhood (E_v := E_p) and
// begins the maintenance tick. jitter staggers the first tick.
func (n *Node) Start(jitter sim.Time) {
	nbrs := n.net.NeighborsOf(n.id)
	n.rc.Grow(len(nbrs))
	n.seed("seed", nbrs...)
	node.Maintain(n.net, n.id, n.cfg.TickInterval, jitter, &n.stopped, n.tick)
}

// Stop halts periodic activity after the current event.
func (n *Node) Stop() { n.stopped = true }

func (n *Node) tick() {
	n.ticks++
	n.delegate()
	n.linearizeSide(ids.Right)
	n.linearizeSide(ids.Left)
	if n.cfg.CloseRing {
		n.wrap.Tick(n.sideEmpty, n.knownIDs, func(d ids.Dir) {
			if d == ids.Left || n.cfg.BothDirections {
				n.sendDiscover(d)
			}
		})
	}
	// Periodic keepalives let the other endpoint of every cached edge keep
	// its reverse-neighbor entry fresh. A node with a single virtual
	// neighbor sends no notifications, so without this its edge would
	// expire from the neighbor's view and the node would drop out of the
	// protocol entirely.
	if n.ticks%keepaliveEvery == 0 {
		now := n.net.Engine().Now()
		if pruneBookkeeping {
			n.prune(now)
		}
		for _, dst := range n.rc.Destinations() {
			// Purge destinations that have been silent for several
			// keepalive periods: the node or the route to it is dead. The
			// tombstone outlives any gossip chain of stale third-party
			// routes, so the dead node cannot circulate indefinitely.
			if now-n.lastHeard[dst] > deadAfter*n.cfg.TickInterval {
				n.drop(dst, "purge")
				n.dropRevNbr(dst)
				n.tombstone(dst, 4*deadAfter)
				continue
			}
			n.courier.Send(n.rc.Route(dst), KindKeepalive, nil)
		}
		// Re-seed E_v from the *current* physical neighborhood: the link
		// layer knows which radios are in range right now (hello beacons in
		// a real deployment), so mobility-created links enter the virtual
		// graph and a direct neighbor is never tombstoned.
		n.seed("reseed", n.net.NeighborsOf(n.id)...)
	}
}

// seed puts the direct edge to each physical neighbour into E_v (E_v := E_p),
// each side closest first (nbrs ascend) so that none displaces another. It
// clears the tombstone, and a kept route counts as hearing from the neighbour.
// A neighbour that stays uncached lost its Bounded slot contest: it is
// recorded for delegation on the next tick. nbrs is the caller's own copy
// (seed reorders it), so the rejects are collected over the neighbours
// already offered, and Start allocates nothing for them.
func (n *Node) seed(cause string, nbrs ...ids.ID) {
	left, _ := slices.BinarySearch(nbrs, n.id)
	slices.Reverse(nbrs[:left])
	rejected := nbrs[:0]
	for _, u := range nbrs {
		delete(n.tornDown, u)
		kept, added := n.add(sroute.Route{n.id, u}, cause)
		switch {
		case kept && !added:
			n.lastHeard[u] = n.net.Engine().Now()
		case !kept && n.rc.Route(u) == nil:
			rejected = append(rejected, u)
		}
	}
	if len(n.rejected) == 0 {
		n.rejected = rejected
	} else {
		n.rejected = append(n.rejected, rejected...)
	}
}

// delegate hands each physical edge the slot contest rejected to the slot's
// holder: it introduces the two, the loser over its one-hop route, so that
// the strictly shorter edge {holder, u} replaces {self, u} in E_v, as
// linearization's delegation does (DESIGN §5 findings 2 and 8). A loser
// that has been cached since, or is a live reverse neighbour, still has its
// edge in E_v and is skipped.
func (n *Node) delegate() {
	for _, u := range n.rejected {
		h, ok := n.rc.Holder(u)
		if !ok || n.rc.Route(u) != nil || n.liveRevNbr(u) {
			continue
		}
		if key := pairOf(h, u); !n.recent(key) {
			n.notify(key, n.rc.Route(h), sroute.Route{n.id, u}, u, false)
		}
	}
	n.rejected = n.rejected[:0]
}

// add offers r to the cache, the one way into E_v, and reports what
// cache.Offer did. A new destination starts its lastHeard clock and emits
// EvEdgeAdd, the incumbent it displaced from a Bounded slot leaves through
// drop; a shorter route to a cached destination is no E_v change.
func (n *Node) add(r sroute.Route, cause string) (kept, added bool) {
	kept, added, evicted := n.rc.Offer(r)
	if evicted != n.id {
		n.drop(evicted, "evict")
	}
	if added {
		n.lastHeard[r.Dst()] = n.net.Engine().Now()
		node.Trace(n.net, n.id, trace.EvEdgeAdd, r.Dst(), cause)
	}
	return kept, added
}

// drop is the one way out of E_v: if dst is in (lastHeard says so: a slot
// contest evicts first), it leaves cache and lastHeard, emitting EvEdgeDelegate.
func (n *Node) drop(dst ids.ID, cause string) {
	if _, ok := n.lastHeard[dst]; ok {
		n.rc.Remove(dst)
		delete(n.lastHeard, dst)
		node.Trace(n.net, n.id, trace.EvEdgeDelegate, dst, cause)
	}
}

// pruneBookkeeping switches prune on; only a test turns it off, to show
// that pruning changes nothing a run does.
var pruneBookkeeping = true

// prune forgets the introductions older than the re-introduction window and
// the expired tombstones. introduce and tombstoned already treat both as
// absent; without this the maps would keep every pair and every peer ever
// seen.
func (n *Node) prune(now sim.Time) {
	for key, op := range n.intros {
		if now-op.at >= reintroduceAfter*n.cfg.TickInterval {
			delete(n.intros, key)
		}
	}
	for x, expiry := range n.tornDown {
		if now >= expiry {
			delete(n.tornDown, x)
		}
	}
}

// reintroduceAfter is the re-introduction window in ticks: a pair is not
// introduced again sooner.
const reintroduceAfter = 32

// pendingFor is how many ticks an introduction waits for its acks; after
// that its pair may be retried (lost frames, churn) once the
// re-introduction window has passed.
const pendingFor = 8

// pending reports whether op still waits for an ack.
func (n *Node) pending(op introOp) bool {
	return !(op.ackLow && op.ackHigh) && n.net.Engine().Now()-op.at < pendingFor*n.cfg.TickInterval
}

// deadAfter is the failure-detection threshold in ticks (several keepalive
// periods, tolerant of sporadic frame loss).
const deadAfter = 5 * keepaliveEvery

// keepaliveEvery is the keepalive period in ticks — well under revNbrTTL.
const keepaliveEvery = 8

// lineNeighbors returns the cache destinations and live reverse neighbors
// on the given side — the N_L / N_R sets of §4 — ascending. The slice is
// the node's scratch, valid until the next call.
func (n *Node) lineNeighbors(d ids.Dir) []ids.ID {
	out := n.line[:0]
	add := func(u ids.ID, _ sroute.Route) {
		if ids.DirOf(n.id, u) == d {
			out = append(out, u)
		}
	}
	n.rc.EachDir(d, add)
	n.eachLiveRevNbr(add)
	slices.Sort(out)
	n.line = slices.Compact(out)
	return n.line
}

// revNbrTTL is how many tick intervals a reverse-neighbor entry stays live
// without a refreshing notification (two re-introduction periods).
const revNbrTTL = 64

// eachLiveRevNbr calls f on every fresh reverse-neighbor entry (see
// revNbrs), ascending by id.
func (n *Node) eachLiveRevNbr(f func(u ids.ID, r sroute.Route)) {
	now := n.net.Engine().Now()
	for _, e := range n.revNbrs {
		if now-e.at <= revNbrTTL*n.cfg.TickInterval {
			f(e.id, e.route)
		}
	}
}

// liveRevNbr reports whether u has a fresh reverse-neighbor entry.
func (n *Node) liveRevNbr(u ids.ID) bool {
	i, ok := n.findRevNbr(u)
	return ok && n.net.Engine().Now()-n.revNbrs[i].at <= revNbrTTL*n.cfg.TickInterval
}

// findRevNbr returns the position of u in revNbrs, or the position it
// would take.
func (n *Node) findRevNbr(u ids.ID) (int, bool) {
	return slices.BinarySearchFunc(n.revNbrs, u, func(e revEntry, u ids.ID) int { return cmp.Compare(e.id, u) })
}

// refreshRevNbr records that u holds a route to us, which we reach back
// over r: the entry's time moves, and its route is replaced by a copy of r
// only when the two differ.
func (n *Node) refreshRevNbr(u ids.ID, r sroute.Route, now sim.Time) {
	i, ok := n.findRevNbr(u)
	if !ok {
		n.revNbrs = slices.Insert(n.revNbrs, i, revEntry{id: u})
	}
	e := &n.revNbrs[i]
	if !e.route.Equal(r) {
		e.route = r.Clone()
	}
	e.at = now
}

// dropRevNbr forgets the reverse-neighbor entry of u, if any.
func (n *Node) dropRevNbr(u ids.ID) {
	if i, ok := n.findRevNbr(u); ok {
		n.revNbrs = slices.Delete(n.revNbrs, i, i+1)
	}
}

// routeTo returns a usable route to x: the cached one, or the reverse
// route recorded for a reverse neighbor.
func (n *Node) routeTo(x ids.ID) sroute.Route {
	if r := n.rc.Route(x); r != nil {
		return r
	}
	if i, ok := n.findRevNbr(x); ok {
		return n.revNbrs[i].route
	}
	return nil
}

// linearizeSide performs the §4 linearization work on one side.
//
// With Teardown enabled this is the paper's operation verbatim: pick the
// two farthest neighbors v2 < v3, introduce them to each other, and — once
// both acknowledge — tear down the edge to the farther one, shrinking the
// neighbor set by one per completed operation (the message-level analog of
// pure linearization).
//
// Without Teardown, progress cannot come from removal, so the node instead
// introduces every *consecutive* pair of its sorted side list — exactly
// Algorithm 1's chain edges — which is the message-level analog of
// linearization with memory; combined with a Bounded cache it realizes LSN.
func (n *Node) linearizeSide(d ids.Dir) {
	nbrs := n.lineNeighbors(d)
	if len(nbrs) < 2 {
		return
	}
	if n.cfg.Teardown {
		// Farthest pair: Right side → the two largest; Left → two smallest.
		var a, b ids.ID // a closer to us than b
		if d == ids.Right {
			a, b = nbrs[len(nbrs)-2], nbrs[len(nbrs)-1]
		} else {
			a, b = nbrs[1], nbrs[0]
		}
		n.introduce(a, b, true)
		return
	}
	for i := 0; i+1 < len(nbrs); i++ {
		n.introduce(nbrs[i], nbrs[i+1], false)
	}
}

// introduce sends both §4 neighbor notifications for the pair (a, b). When
// tear is set, b (the farther neighbor) is torn down after both acks. Pairs
// are rate-limited: an introduction is not repeated within the
// re-introduction window (which outlasts the pending one), keeping
// steady-state traffic bounded while remaining robust to frame loss.
func (n *Node) introduce(a, b ids.ID, tear bool) {
	if key := pairOf(a, b); !n.recent(key) {
		n.notify(key, n.routeTo(a), n.routeTo(b), b, tear)
	}
}

// pairOf names the introduction of a and b.
func pairOf(a, b ids.ID) pairKey {
	if a > b {
		a, b = b, a
	}
	return pairKey{Low: a, High: b}
}

// recent reports whether the pair was introduced within the
// re-introduction window.
func (n *Node) recent(key pairKey) bool {
	op, seen := n.intros[key]
	return seen && n.net.Engine().Now()-op.at < reintroduceAfter*n.cfg.TickInterval
}

// notify records the introduction of key's pair and sends its two
// notifications, over ra and rb; without both routes it does nothing. The
// payloads share ra and rb: the routes the cache, revNbrs and the wrap
// state hold are replaced, never written in place, and the receiver only
// reads OtherRoute.
func (n *Node) notify(key pairKey, ra, rb sroute.Route, farther ids.ID, tear bool) {
	if ra == nil || rb == nil {
		return
	}
	n.intros[key] = introOp{at: n.net.Engine().Now(), farther: farther, tear: tear}
	n.courier.Send(ra, KindNotify, notifyPayload{OtherRoute: rb, Pair: key})
	n.courier.Send(rb, KindNotify, notifyPayload{OtherRoute: ra, Pair: key})
}

// sideEmpty reports whether side d of E_v is empty: the §4 condition for
// sending discovery in that direction.
func (n *Node) sideEmpty(d ids.Dir) bool { return len(n.lineNeighbors(d)) == 0 }

// knownIDs lists every identifier the node knows, cache destinations and
// live reverse neighbors: the candidates that can beat a wrap partner.
func (n *Node) knownIDs() []ids.ID {
	known := n.rc.Destinations()
	n.eachLiveRevNbr(func(u ids.ID, _ sroute.Route) { known = append(known, u) })
	return known
}

// bestByMetric scans the virtual neighborhood — cache destinations plus
// live reverse neighbors, since E_v is undirected — for the node minimizing
// the metric, excluding the given origin.
func (n *Node) bestByMetric(exclude ids.ID, metric func(ids.ID) uint64) (ids.ID, sroute.Route, bool) {
	var bestID ids.ID
	var bestRoute sroute.Route
	found := false
	consider := func(x ids.ID, r sroute.Route) {
		if x == exclude || x == n.id || r == nil {
			return
		}
		if !found || metric(x) < metric(bestID) {
			bestID, bestRoute, found = x, r, true
		}
	}
	n.rc.Each(consider)
	n.eachLiveRevNbr(consider)
	return bestID, bestRoute, found
}

func (n *Node) sendDiscover(d ids.Dir) {
	metric := node.RingMetric(n.id, d)
	_, via, ok := n.bestByMetric(n.id, metric)
	if !ok || via == nil {
		return
	}
	n.courier.Send(via, KindDiscover, discoverPayload{
		Origin:          n.id,
		Dir:             d,
		RouteFromOrigin: via.Clone(),
	})
}

// deliver dispatches courier packets addressed to this node.
func (n *Node) deliver(pkt phys.SRPacket) {
	// Every received packet teaches the reverse route to its segment source
	// and proves the sender holds a route to us — refresh the undirected-
	// edge view (E_v, §4) regardless of message kind.
	n.back = pkt.Route.ReverseInto(n.back)
	back := n.back
	n.learn(back)
	if len(back) >= 2 && back.Dst() != n.id && !n.tombstoned(back.Dst()) {
		now := n.net.Engine().Now()
		n.refreshRevNbr(back.Dst(), back, now)
		if _, ok := n.lastHeard[back.Dst()]; ok {
			n.lastHeard[back.Dst()] = now
		}
	}
	switch pkt.Kind {
	case KindNotify:
		n.handleNotify(pkt, back)
	case KindAck:
		n.handleAck(pkt)
	case KindKeepalive:
		// Acknowledge: the keepack's only effect is the lastHeard refresh above.
		if len(back) >= 2 {
			n.courier.Send(back, KindKeepAck, nil)
		}
	case KindTeardown:
		n.drop(pkt.Route.Src(), "teardown-recv")
		n.dropRevNbr(pkt.Route.Src())
		n.tombstone(pkt.Route.Src(), revNbrTTL)
	case KindDiscover:
		n.handleDiscover(pkt)
	case KindDiscoverAck:
		n.handleDiscoverAck(pkt)
	case KindData:
		n.handleData(pkt)
	}
}

// overhear caches route segments of relayed packets.
func (n *Node) overhear(pkt phys.SRPacket) { node.Overhear(pkt, &n.back, n.learn) }

// tombstoned reports whether the edge to x is currently tombstoned.
func (n *Node) tombstoned(x ids.ID) bool {
	expiry, ok := n.tornDown[x]
	if !ok {
		return false
	}
	if n.net.Engine().Now() >= expiry {
		delete(n.tornDown, x)
		return false
	}
	return true
}

// tombstone blocks re-learning routes to x for the given number of ticks.
func (n *Node) tombstone(x ids.ID, ticks sim.Time) {
	n.tornDown[x] = n.net.Engine().Now() + ticks*n.cfg.TickInterval
}

// learn caches r if it is a route from us. It never keeps r (the cache
// stores a copy), so callers hand it the node's scratch or a view of a
// packet's route.
func (n *Node) learn(r sroute.Route) {
	// Received and overheard routes are untrusted input: a forged or
	// corrupted frame can carry a route that revisits a node, and caching
	// it would break source-route loop-freedom. Elide before inserting
	// (the elided route covers the same physical links, §1); the scan
	// keeps the common simple-route path allocation-free.
	if !r.Simple() {
		r = r.ElideLoops()
	}
	if len(r) >= 2 && r.Src() == n.id && r.Dst() != n.id && !n.tombstoned(r.Dst()) {
		n.add(r, "learn")
	}
}

// handleNotify composes the route to the other introduced neighbor from
// back, the packet's route reversed (us → notifier).
func (n *Node) handleNotify(pkt phys.SRPacket, back sroute.Route) {
	np, ok := pkt.Payload.(notifyPayload)
	if !ok {
		return
	}
	// A nil check is not enough: a forged or corrupted frame can carry an
	// empty non-nil route, and Src() on it panics.
	if len(np.OtherRoute) < 2 || len(back) < 2 || back.Dst() != np.OtherRoute.Src() {
		return
	}
	if composed, err := back.Append(np.OtherRoute); err == nil && len(composed) >= 2 {
		n.learn(composed)
	}
	// Acknowledge so the notifier can complete (and possibly tear down).
	n.courier.Send(back, KindAck, ackPayload{Pair: np.Pair})
}

func (n *Node) handleAck(pkt phys.SRPacket) {
	ap, ok := pkt.Payload.(ackPayload)
	if !ok {
		return
	}
	op, exists := n.intros[ap.Pair]
	if !exists || !n.pending(op) {
		return
	}
	switch pkt.Route.Src() {
	case ap.Pair.Low:
		op.ackLow = true
	case ap.Pair.High:
		op.ackHigh = true
	}
	n.intros[ap.Pair] = op
	if n.pending(op) || !op.tear {
		return
	}
	// Both sides confirmed: drop our edge to the farther neighbor and tell
	// it to drop its state for us too (§4's teardown acknowledgment).
	if r := n.rc.Route(op.farther); r != nil {
		n.courier.Send(r, KindTeardown, nil)
		n.drop(op.farther, "teardown-send")
		n.dropRevNbr(op.farther)
		n.tombstone(op.farther, revNbrTTL)
	}
}

func (n *Node) handleDiscover(pkt phys.SRPacket) {
	dp, ok := pkt.Payload.(discoverPayload)
	if !ok || dp.Origin == n.id {
		return
	}
	// Can we make greedy progress toward the sought extremal position? If
	// yes, extend the accumulated route and forward; if not, we are the
	// sought node: acknowledge, establishing the wrap edge.
	metric := node.RingMetric(dp.Origin, dp.Dir)
	if next, via, found := n.bestByMetric(dp.Origin, metric); found && via != nil && metric(next) < metric(n.id) {
		if extended, err := dp.RouteFromOrigin.Append(via); err == nil {
			n.courier.Send(via, KindDiscover, discoverPayload{
				Origin: dp.Origin, Dir: dp.Dir, RouteFromOrigin: extended,
			})
			return
		}
	}
	// We are the endpoint. Learn the wrap route and acknowledge. A
	// clockwise (Left) discovery makes its origin our ring successor, so we
	// record it on our right, and vice versa.
	back := dp.RouteFromOrigin.Reverse() // us → origin
	if len(back) < 2 || back.Src() != n.id {
		return
	}
	side := ids.Left
	if dp.Dir == ids.Left {
		side = ids.Right
	}
	n.adoptWrap(side, dp.Origin, back)
	n.courier.Send(back, KindDiscoverAck, discoverAckPayload{RouteFromOrigin: dp.RouteFromOrigin.Clone(), Dir: dp.Dir})
}

// adoptWrap installs a wrap partner on the given ring side if it beats the
// incumbent (best-wins, see node.Wrap.Adopt).
func (n *Node) adoptWrap(side ids.Dir, partner ids.ID, route sroute.Route) {
	if n.wrap.Adopt(side, partner, route.Clone()) {
		node.Trace(n.net, n.id, trace.EvRingClosed, partner, "wrap-"+side.String())
	}
}

func (n *Node) handleDiscoverAck(pkt phys.SRPacket) {
	da, ok := pkt.Payload.(discoverAckPayload)
	if !ok || len(da.RouteFromOrigin) < 2 || da.RouteFromOrigin.Src() != n.id {
		return
	}
	n.adoptWrap(da.Dir, da.RouteFromOrigin.Dst(), da.RouteFromOrigin)
}

// SendData launches an application packet toward dst using SSR's greedy
// routing. It reports whether a first segment could be sent (self-delivery
// counts as success).
func (n *Node) SendData(dst ids.ID, body any) bool {
	if dst == n.id {
		if n.OnDeliver != nil {
			n.OnDeliver(Delivery{Origin: n.id, Dst: dst, Body: body})
		}
		return true
	}
	return n.forwardData(dataPayload{Origin: n.id, Dst: dst, Body: body})
}

// handleData continues a packet at an intermediate destination or delivers.
func (n *Node) handleData(pkt phys.SRPacket) {
	dp, ok := pkt.Payload.(dataPayload)
	if !ok {
		return
	}
	dp.Hops += pkt.Route.Hops()
	dp.Segments++
	if dp.Dst == n.id {
		if n.OnDeliver != nil {
			n.OnDeliver(Delivery{Origin: dp.Origin, Dst: dp.Dst, Hops: dp.Hops,
				Segments: dp.Segments, Body: dp.Body})
		}
		return
	}
	if !n.forwardData(dp) {
		n.Failed++
	}
}

// forwardData performs one greedy step (§1): pick the candidate virtually
// closest to the destination — from the cache (including intermediate nodes
// of cached routes) or from the reverse neighbors — and send the packet
// along the corresponding source route.
func (n *Node) forwardData(dp dataPayload) bool {
	var via sroute.Route
	bestDist := ids.RingDist(n.id, dp.Dst)
	if cand, ok := n.rc.BestToward(dp.Dst); ok {
		via = cand.Via
		bestDist = ids.RingDist(cand.Node, dp.Dst)
	}
	// Walk order cannot matter here: distinct neighbors are at distinct ring
	// distances from dp.Dst, so the strict minimum is unique.
	n.eachLiveRevNbr(func(u ids.ID, r sroute.Route) {
		if d := ids.RingDist(u, dp.Dst); d < bestDist {
			via, bestDist = r, d
		}
	})
	for _, side := range [2]ids.Dir{ids.Left, ids.Right} {
		if p, ok := n.wrap.Partner(side); ok && n.wrap.State(side) != nil {
			if d := ids.RingDist(p, dp.Dst); d < bestDist {
				via, bestDist = n.wrap.State(side), d
			}
		}
	}
	if via == nil {
		return false
	}
	return n.courier.Send(via, KindData, dp)
}
