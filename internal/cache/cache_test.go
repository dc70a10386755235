package cache

import (
	"math/rand"
	"testing"
	"testing/quick"

	"repro/internal/ids"
	"repro/internal/sroute"
)

func route(t *testing.T, nodes ...ids.ID) sroute.Route {
	t.Helper()
	r, err := sroute.New(nodes...)
	if err != nil {
		t.Fatalf("route %v: %v", nodes, err)
	}
	return r
}

func TestInsertBasics(t *testing.T) {
	c := New(100, Unbounded)
	if c.Owner() != 100 || c.Mode() != Unbounded {
		t.Error("Owner/Mode broken")
	}
	if c.Insert(route(t, 50, 60)) {
		t.Error("route not starting at owner must be rejected")
	}
	if !c.Insert(route(t, 100, 50)) {
		t.Error("valid route rejected")
	}
	if c.Insert(route(t, 100, 7, 50)) {
		t.Error("longer route to cached dst must not replace")
	}
	if !c.Insert(route(t, 100, 7, 150, 200)) {
		t.Error("new dst rejected")
	}
	if c.Len() != 2 {
		t.Errorf("Len = %d, want 2", c.Len())
	}
	// Shorter route replaces.
	if !c.Insert(route(t, 100, 200)) {
		t.Error("shorter route must replace")
	}
	if got := c.Route(200); got.Hops() != 1 {
		t.Errorf("route to 200 has %d hops, want 1", got.Hops())
	}
	if c.Route(999) != nil {
		t.Error("absent dst should give nil")
	}
	if c.TotalRouteNodes() != 2+2 {
		t.Errorf("TotalRouteNodes = %d, want 4", c.TotalRouteNodes())
	}
	// Offer names what changed: reject, new, swap (a shorter route to a
	// cached destination adds none) and a Bounded slot contest, which
	// displaces the incumbent.
	c = New(1000, Bounded)
	for _, tc := range []struct {
		name           string
		r              sroute.Route
		kept, added    bool
		evicted, after ids.ID // after: a destination that must be cached afterwards
	}{
		{"new", route(t, 1000, 7, 1050), true, true, 1000, 1050},
		{"reject: longer route to a cached destination", route(t, 1000, 7, 8, 1050), false, false, 1000, 1050},
		{"reject: farther destination in a held slot", route(t, 1000, 1060), false, false, 1000, 1050},
		{"swap", route(t, 1000, 1050), true, false, 1000, 1050},
		{"displace", route(t, 1000, 9, 1040), true, true, 1050, 1040},
		{"reject: not from the owner", route(t, 5, 1040), false, false, 1000, 1040},
	} {
		kept, added, evicted := c.Offer(tc.r)
		if kept != tc.kept || added != tc.added || evicted != tc.evicted {
			t.Errorf("%s: Offer(%v) = %v,%v,%v, want %v,%v,%v", tc.name, tc.r, kept, added, evicted, tc.kept, tc.added, tc.evicted)
		}
		if c.Route(tc.after) == nil {
			t.Errorf("%s: %v not cached afterwards", tc.name, tc.after)
		}
		// after shares r's slot, so it is the incumbent r lost to or the
		// one r became.
		if h, ok := c.Holder(tc.r.Dst()); !ok || h != tc.after {
			t.Errorf("%s: Holder(%v) = %v,%v, want %v", tc.name, tc.r.Dst(), h, ok, tc.after)
		}
	}
	if h, ok := c.Holder(990); ok {
		t.Errorf("Holder of an empty slot = %v", h)
	}
	if h, ok := New(1000, Unbounded).Holder(1040); ok {
		t.Errorf("Unbounded Holder = %v", h)
	}
	if c.Route(1050) != nil || c.Len() != 1 {
		t.Errorf("displaced 1050 still cached, or Len = %d, want 1", c.Len())
	}
}

func TestInsertRejectsDegenerate(t *testing.T) {
	c := New(100, Bounded)
	if c.Insert(sroute.Route{100}) {
		t.Error("1-node route must be rejected")
	}
	if c.Insert(sroute.Route{100, 5, 100}) {
		t.Error("route back to owner must be rejected")
	}
}

func TestBoundedOneSlotPerInterval(t *testing.T) {
	c := New(1000, Bounded)
	// 1040 and 1050 are both in interval [32,64) to the right.
	if !c.Insert(route(t, 1000, 1050)) {
		t.Error("first occupant rejected")
	}
	// 1040 is closer to owner: must evict 1050.
	if !c.Insert(route(t, 1000, 1040)) {
		t.Error("closer dst must win the slot")
	}
	if c.Route(1050) != nil {
		t.Error("evicted dst still cached")
	}
	// 1045: same interval, farther than 1040: rejected.
	if c.Insert(route(t, 1000, 1045)) {
		t.Error("farther dst must lose the contested slot")
	}
	// Same distance, fewer hops wins: dst 960 at distance 40 left.
	if !c.Insert(route(t, 1000, 7, 960)) {
		t.Error("left interval occupant rejected")
	}
	if c.Insert(route(t, 1000, 8, 9, 960)) {
		t.Error("same dst, more hops must not replace")
	}
	if c.Len() != 2 {
		t.Errorf("Len = %d, want 2 (one per side)", c.Len())
	}
	left, right := c.IntervalOccupancy()
	if left != 1 || right != 1 {
		t.Errorf("occupancy = %d,%d, want 1,1", left, right)
	}
}

func TestBoundedStateIsLogarithmic(t *testing.T) {
	owner := ids.ID(1 << 32)
	c := New(owner, Bounded)
	r := rand.New(rand.NewSource(5))
	for i := 0; i < 10000; i++ {
		dst := ids.ID(r.Uint64())
		if dst == owner {
			continue
		}
		rt, err := sroute.New(owner, dst)
		if err != nil {
			continue
		}
		c.Insert(rt)
	}
	if c.Len() > 2*ids.NumIntervals {
		t.Errorf("bounded cache grew to %d entries (> %d)", c.Len(), 2*ids.NumIntervals)
	}
	if c.Len() < 10 {
		t.Errorf("bounded cache suspiciously small: %d", c.Len())
	}
}

func TestRemove(t *testing.T) {
	c := New(100, Bounded)
	c.Insert(route(t, 100, 140))
	if !c.Remove(140) {
		t.Error("Remove should report present")
	}
	if c.Remove(140) {
		t.Error("Remove twice should report absent")
	}
	// Slot must be freed: a farther dst in the same interval now fits.
	if !c.Insert(route(t, 100, 150)) {
		t.Error("slot not freed after Remove")
	}
}

func TestNeighborsDirAndNearest(t *testing.T) {
	c := New(100, Unbounded)
	for _, dst := range []ids.ID{40, 90, 110, 200} {
		c.Insert(route(t, 100, dst))
	}
	left := c.NeighborsDir(ids.Left)
	if len(left) != 2 || left[0] != 40 || left[1] != 90 {
		t.Errorf("left = %v", left)
	}
	right := c.NeighborsDir(ids.Right)
	if len(right) != 2 || right[0] != 110 || right[1] != 200 {
		t.Errorf("right = %v", right)
	}
	if n, ok := c.Nearest(ids.Left); !ok || n != 90 {
		t.Errorf("Nearest left = %v,%v", n, ok)
	}
	if n, ok := c.Nearest(ids.Right); !ok || n != 110 {
		t.Errorf("Nearest right = %v,%v", n, ok)
	}
	empty := New(5, Bounded)
	if _, ok := empty.Nearest(ids.Left); ok {
		t.Error("empty cache should have no nearest")
	}
	dsts := c.Destinations()
	if len(dsts) != 4 || dsts[0] != 40 || dsts[3] != 200 {
		t.Errorf("Destinations = %v", dsts)
	}
}

func TestBestTowardPicksVirtuallyClosest(t *testing.T) {
	c := New(100, Unbounded)
	c.Insert(route(t, 100, 120))
	c.Insert(route(t, 100, 5, 180))
	c.Insert(route(t, 100, 300))
	// Target 190: ring distances: 120→70, 180→10, 300→huge wrap. 180 wins.
	cand, ok := c.BestToward(190)
	if !ok || cand.Node != 180 {
		t.Fatalf("BestToward(190) = %+v, %v", cand, ok)
	}
	if !cand.Via.Equal(sroute.Route{100, 5, 180}) {
		t.Errorf("Via = %v", cand.Via)
	}
}

func TestBestTowardUsesIntermediateNodes(t *testing.T) {
	c := New(100, Unbounded)
	// 170 only appears as an intermediate node.
	c.Insert(route(t, 100, 170, 400))
	cand, ok := c.BestToward(175)
	if !ok || cand.Node != 170 {
		t.Fatalf("BestToward(175) = %+v, %v", cand, ok)
	}
	if !cand.Via.Equal(sroute.Route{100, 170}) {
		t.Errorf("Via should be the prefix, got %v", cand.Via)
	}
}

func TestBestTowardTieBreaksByHops(t *testing.T) {
	c := New(100, Unbounded)
	c.Insert(route(t, 100, 5, 6, 180)) // 3 hops to 180
	c.Insert(route(t, 100, 180))       // 1 hop to 180
	cand, ok := c.BestToward(180)
	if !ok || cand.Node != 180 || cand.Via.Hops() != 1 {
		t.Fatalf("BestToward tie-break = %+v (hops=%d)", cand, cand.Via.Hops())
	}
}

// TestBestTowardIndependentOfMapOrder: node 150 sits at depth 2 on four
// cached routes, so distance and hop count tie; the answer must be the
// smallest prefix whatever order the routes went in or the map ranges in.
func TestBestTowardIndependentOfMapOrder(t *testing.T) {
	routes := []sroute.Route{
		route(t, 100, 7, 150, 300), route(t, 100, 3, 150, 400),
		route(t, 100, 9, 150, 500), route(t, 100, 5, 150, 600),
		route(t, 100, 4, 8, 150), // same node, one hop further: never wins
	}
	want := route(t, 100, 3, 150)
	rng := rand.New(rand.NewSource(1))
	for trial := 0; trial < 20; trial++ {
		rng.Shuffle(len(routes), func(i, j int) { routes[i], routes[j] = routes[j], routes[i] })
		c := New(100, Unbounded)
		for _, r := range routes {
			c.Insert(r)
		}
		cand, ok := c.BestToward(150)
		if !ok || cand.Node != 150 || !cand.Via.Equal(want) {
			t.Fatalf("trial %d: BestToward(150) = %+v, want via %v", trial, cand, want)
		}
	}
}

func TestBestTowardRequiresProgress(t *testing.T) {
	c := New(100, Unbounded)
	// Target 101; candidate 102 is *past* the target clockwise (huge ring
	// distance), candidate 99 is behind owner. Neither improves on owner's
	// own distance of 1.
	c.Insert(route(t, 100, 102))
	c.Insert(route(t, 100, 99))
	if cand, ok := c.BestToward(101); ok {
		t.Errorf("no progress possible, got %+v", cand)
	}
	// Exact-match target is progress.
	c.Insert(route(t, 100, 101))
	if cand, ok := c.BestToward(101); !ok || cand.Node != 101 {
		t.Errorf("exact target: %+v, %v", cand, ok)
	}
}

func TestBestTowardEmpty(t *testing.T) {
	c := New(100, Bounded)
	if _, ok := c.BestToward(5); ok {
		t.Error("empty cache should find nothing")
	}
}

func TestClone(t *testing.T) {
	c := New(100, Bounded)
	c.Insert(route(t, 100, 140))
	cl := c.Clone()
	cl.Remove(140)
	if c.Route(140) == nil {
		t.Error("Clone must be independent")
	}
	if cl.Mode() != Bounded || cl.Owner() != 100 {
		t.Error("Clone lost metadata")
	}
}

func TestModeString(t *testing.T) {
	if Bounded.String() != "bounded" || Unbounded.String() != "unbounded" {
		t.Error("Mode.String broken")
	}
}

func TestBoundedNeverExceedsBoundProperty(t *testing.T) {
	// Property: a bounded cache never holds more than one destination per
	// (direction, interval) pair, for arbitrary insert sequences.
	f := func(dsts []uint16) bool {
		owner := ids.ID(1 << 15)
		c := New(owner, Bounded)
		for _, d := range dsts {
			dst := ids.ID(d)
			if dst == owner {
				continue
			}
			rt, err := sroute.New(owner, dst)
			if err != nil {
				continue
			}
			c.Insert(rt)
		}
		seen := map[[2]int]int{}
		for _, dst := range c.Destinations() {
			key := [2]int{dirIndex(ids.DirOf(owner, dst)), ids.IntervalIndex(ids.LineDist(owner, dst))}
			seen[key]++
			if seen[key] > 1 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

func TestBestTowardAlwaysImprovesProperty(t *testing.T) {
	// Property: any candidate returned is strictly ring-closer to the
	// target than the owner, and Via starts at owner and ends at the node.
	r := rand.New(rand.NewSource(9))
	owner := ids.ID(1 << 40)
	c := New(owner, Unbounded)
	for i := 0; i < 50; i++ {
		dst := ids.ID(r.Uint64())
		if dst == owner {
			continue
		}
		mid := ids.ID(r.Uint64())
		var rt sroute.Route
		var err error
		if mid != owner && mid != dst && i%2 == 0 {
			rt, err = sroute.New(owner, mid, dst)
		} else {
			rt, err = sroute.New(owner, dst)
		}
		if err != nil {
			continue
		}
		c.Insert(rt)
	}
	f := func(target ids.ID) bool {
		cand, ok := c.BestToward(target)
		if !ok {
			return true
		}
		if ids.RingDist(cand.Node, target) >= ids.RingDist(owner, target) {
			return false
		}
		return cand.Via.Src() == owner && cand.Via.Dst() == cand.Node
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}
