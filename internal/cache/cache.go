// Package cache implements SSR's route cache and the bounded-memory
// shortcut-neighbor structure of "linearization with shortcut neighbors"
// (LSN, Onus et al., quoted in §2 of the paper):
//
//	"Every node divides its local view of the identifier space into
//	 exponentially growing intervals. For every interval at most one edge
//	 is remembered."
//
// The cache stores source routes keyed by their destination. In Bounded
// mode it keeps at most one route per exponential distance interval per
// direction (left/right on the identifier line), the one to the closest
// destination — O(log |space|) entries. ids.Slot names the slots, as it
// does for the round model's LSN keep set. In Unbounded mode it keeps
// every route, which is exactly "linearization with memory". §4 notes SSR
// gets the shortcut set for free: "a node typically caches at least one
// node for each of the exponentially growing intervals".
//
// Lookups implement SSR's greedy rule (§1): among all cached nodes —
// including the intermediate nodes of every cached route — pick the one
// virtually closest to the packet's final destination, tie-broken by
// physical proximity (fewest source-route hops).
package cache

import (
	"slices"

	"repro/internal/ids"
	"repro/internal/sroute"
)

// Mode selects the retention policy.
type Mode int

const (
	// Bounded keeps at most one route per LSN slot (ids.Slot), the
	// closest.
	Bounded Mode = iota
	// Unbounded keeps every inserted route (linearization with memory).
	Unbounded
)

// String names the mode.
func (m Mode) String() string {
	if m == Bounded {
		return "bounded"
	}
	return "unbounded"
}

// Cache is one node's route cache. Not safe for concurrent use; in the
// simulator each node's state is touched only from the event loop.
//
// The routes sit in two parallel slices sorted by destination: a lookup is
// a binary search over plain identifiers, the destinations left of the
// owner come before those right of it, and iteration allocates nothing.
type Cache struct {
	owner  ids.ID
	mode   Mode
	dsts   []ids.ID       // ascending; never the owner
	routes []sroute.Route // routes[i] leads to dsts[i]
	// slot[s] is the destination currently occupying LSN slot s (see
	// ids.Slot), valid while has[s].
	slot [ids.NumSlots]ids.ID
	has  [ids.NumSlots]bool
}

// New returns an empty cache for the given node.
func New(owner ids.ID, mode Mode) *Cache {
	return &Cache{owner: owner, mode: mode}
}

// Grow makes room for n more routes, so that the next n inserts do not
// reallocate.
func (c *Cache) Grow(n int) {
	c.dsts = slices.Grow(c.dsts, n)
	c.routes = slices.Grow(c.routes, n)
}

// Owner returns the node this cache belongs to.
func (c *Cache) Owner() ids.ID { return c.owner }

// Mode returns the retention policy.
func (c *Cache) Mode() Mode { return c.mode }

// Len returns the number of cached routes.
func (c *Cache) Len() int { return len(c.dsts) }

// TotalRouteNodes returns the summed length of all cached routes — the
// router-state metric for experiment E8.
func (c *Cache) TotalRouteNodes() int {
	total := 0
	for _, r := range c.routes {
		total += len(r)
	}
	return total
}

// find returns the position of dst in dsts, or the position it would take.
func (c *Cache) find(dst ids.ID) (int, bool) { return slices.BinarySearch(c.dsts, dst) }

// side returns the index range of the destinations on side d of the owner.
func (c *Cache) side(d ids.Dir) (lo, hi int) {
	split, _ := c.find(c.owner)
	if d == ids.Left {
		return 0, split
	}
	return split, len(c.dsts)
}

// Insert offers a route to the cache. The route must start at the owner.
// In Bounded mode the route is kept only if its slot is empty or its
// destination is closer than the incumbent's (tightening toward the
// eventual ring neighbors). Insert reports whether the cache retained the
// route. A shorter route to an already-cached destination always replaces
// the longer one. The cache keeps a copy: the caller may reuse r.
func (c *Cache) Insert(r sroute.Route) bool { kept, _, _ := c.Offer(r); return kept }

// Offer is Insert reporting what the cache's destination set did: added is
// set when r's destination entered it (not when a shorter route replaced a
// cached one), and evicted is the incumbent that r's destination displaced
// from a Bounded slot, or the owner when none was.
func (c *Cache) Offer(r sroute.Route) (kept, added bool, evicted ids.ID) {
	if len(r) < 2 || r.Src() != c.owner || r.Dst() == c.owner {
		return false, false, c.owner
	}
	dst := r.Dst()
	i, found := c.find(dst)
	if found {
		if r.Hops() < c.routes[i].Hops() {
			c.routes[i] = r.Clone()
			return true, false, c.owner
		}
		return false, false, c.owner
	}
	if c.mode == Bounded {
		s := ids.Slot(c.owner, dst)
		if c.has[s] {
			// The incumbent lies on dst's side of the owner, so the two
			// line distances differ: there is no tie to break.
			inc := c.slot[s]
			if ids.LineDist(c.owner, dst) >= ids.LineDist(c.owner, inc) {
				return false, false, c.owner
			}
			// Every cached destination holds its slot, so none lies
			// between the incumbent and the challenger, which share one:
			// the winner takes the incumbent's position.
			j, _ := c.find(inc)
			c.slot[s] = dst
			c.dsts[j], c.routes[j] = dst, r.Clone()
			return true, true, inc
		}
		c.slot[s], c.has[s] = dst, true
	}
	c.dsts = slices.Insert(c.dsts, i, dst)
	c.routes = slices.Insert(c.routes, i, r.Clone())
	return true, true, c.owner
}

// Remove deletes the route to dst and reports whether it was present.
func (c *Cache) Remove(dst ids.ID) bool {
	i, found := c.find(dst)
	if !found {
		return false
	}
	c.dsts = slices.Delete(c.dsts, i, i+1)
	c.routes = slices.Delete(c.routes, i, i+1)
	if c.mode == Bounded {
		c.has[ids.Slot(c.owner, dst)] = false // dst held its slot
	}
	return true
}

// Holder returns the destination holding the Bounded interval slot that
// dst falls in: the incumbent a route to dst must beat. ok is false in
// Unbounded mode and when the slot is empty.
func (c *Cache) Holder(dst ids.ID) (holder ids.ID, ok bool) {
	s := ids.Slot(c.owner, dst)
	if c.mode != Bounded || s < 0 {
		return 0, false
	}
	return c.slot[s], c.has[s]
}

// Route returns the cached route to dst, or nil.
func (c *Cache) Route(dst ids.ID) sroute.Route {
	if i, found := c.find(dst); found {
		return c.routes[i]
	}
	return nil
}

// Destinations returns all cached destinations in ascending order.
func (c *Cache) Destinations() []ids.ID {
	return append(make([]ids.ID, 0, len(c.dsts)), c.dsts...)
}

// NeighborsDir returns cached destinations on the given side of the owner,
// ascending. These are the left/right virtual neighbor sets N_L, N_R of §4.
func (c *Cache) NeighborsDir(d ids.Dir) []ids.ID {
	lo, hi := c.side(d)
	return slices.Clone(c.dsts[lo:hi])
}

// Nearest returns the cached destination closest to the owner on the given
// side, or ok=false if that side is empty. After linearization converges,
// Nearest(Left) and Nearest(Right) are the ring predecessor and successor.
func (c *Cache) Nearest(d ids.Dir) (ids.ID, bool) {
	lo, hi := c.side(d)
	switch {
	case lo == hi:
		return 0, false
	case d == ids.Left:
		return c.dsts[hi-1], true
	}
	return c.dsts[lo], true
}

// Each calls f on every cached destination and its route, ascending. The
// route is the cache's own, as Route's is; f must not change it, nor
// insert into or remove from the cache.
func (c *Cache) Each(f func(dst ids.ID, r sroute.Route)) {
	for i, dst := range c.dsts {
		f(dst, c.routes[i])
	}
}

// EachDir is Each over the destinations on side d: NeighborsDir without
// the copy.
func (c *Cache) EachDir(d ids.Dir, f func(dst ids.ID, r sroute.Route)) {
	lo, hi := c.side(d)
	for i := lo; i < hi; i++ {
		f(c.dsts[i], c.routes[i])
	}
}

// Candidate is a potential intermediate destination produced by a lookup:
// a node somewhere on a cached route, with the route prefix that reaches it.
type Candidate struct {
	Node ids.ID
	Via  sroute.Route // prefix of a cached route, from owner to Node
}

// BestToward implements SSR's greedy next-intermediate-destination rule for
// a packet addressed to target: scan every node on every cached route
// (intermediate nodes included) and return the candidate that minimizes the
// clockwise ring distance to target, tie-broken by fewest hops from the
// owner ("physically closest to itself and virtually closest to the final
// destination", §1). Candidates still tied — the same node at the same
// depth on two routes — are ordered by their prefixes, element by element,
// so the answer depends on the cache's contents and never on the order the
// routes went in. The owner itself is never returned; ok=false means the cache is
// empty. If target itself is on some cached route, the exact route is
// returned.
func (c *Cache) BestToward(target ids.ID) (Candidate, bool) {
	var via sroute.Route                      // best prefix so far, aliasing a cached route
	bestDist := ids.RingDist(c.owner, target) // must improve on owner
	for _, r := range c.routes {
		for i := 1; i < len(r); i++ {
			node := r[i]
			if node == c.owner {
				continue
			}
			dist := ids.RingDist(node, target)
			if dist > bestDist || (via == nil && dist == bestDist) {
				// Not an improvement — on the best candidate, or, before
				// there is one, on just holding the packet; SSR's ring
				// consistency guarantees the successor always improves.
				continue
			}
			if dist == bestDist {
				// The same node again: fewer hops wins, then prefix order.
				if n := i + 1; n > len(via) || (n == len(via) && !prefixLess(r[:n], via)) {
					continue
				}
			}
			via, bestDist = r[:i+1], dist
		}
	}
	if via == nil {
		return Candidate{}, false
	}
	return Candidate{Node: via.Dst(), Via: via.Clone()}, true
}

// prefixLess orders two equal-length route prefixes element by element.
func prefixLess(a, b sroute.Route) bool {
	for i := range a {
		if a[i] != b[i] {
			return a[i] < b[i]
		}
	}
	return false
}

// Clone returns a deep copy of the cache (routes included).
func (c *Cache) Clone() *Cache {
	n := &Cache{owner: c.owner, mode: c.mode, slot: c.slot, has: c.has}
	n.dsts = slices.Clone(c.dsts)
	n.routes = make([]sroute.Route, len(c.routes))
	for i, r := range c.routes {
		n.routes[i] = r.Clone()
	}
	return n
}

// IntervalOccupancy returns, per direction, how many interval slots are
// filled (Bounded mode) or how many distinct intervals have at least one
// destination (Unbounded mode). Used by the E8 state-size experiment and by
// the §4 claim that SSR caches populate the LSN shortcut set.
func (c *Cache) IntervalOccupancy() (left, right int) {
	var seen [ids.NumSlots]bool
	for _, dst := range c.dsts {
		seen[ids.Slot(c.owner, dst)] = true
	}
	for s, ok := range seen {
		switch {
		case !ok:
		case s < ids.NumIntervals:
			left++
		default:
			right++
		}
	}
	return left, right
}
