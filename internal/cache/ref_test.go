package cache

import (
	"fmt"
	"math/rand"
	"slices"
	"testing"

	"repro/internal/ids"
	"repro/internal/sroute"
)

// refCache is the map-based route cache the sorted-slice Cache replaced,
// kept as the reference model: same policy, one map keyed by destination,
// every ordered view sorted on demand.
type refCache struct {
	owner  ids.ID
	mode   Mode
	routes map[ids.ID]sroute.Route
	slot   [2][ids.NumIntervals]ids.ID
	has    [2][ids.NumIntervals]bool
}

// dirIndex is the reference's own side index (0=left, 1=right): the model
// keeps the [2][NumIntervals] slot layout and does not share ids.Slot with
// the cache it checks.
func dirIndex(d ids.Dir) int {
	if d == ids.Left {
		return 0
	}
	return 1
}

func newRef(owner ids.ID, mode Mode) *refCache {
	return &refCache{owner: owner, mode: mode, routes: make(map[ids.ID]sroute.Route)}
}

func (c *refCache) Insert(r sroute.Route) bool {
	kept, _, _ := c.Offer(r)
	return kept
}

func (c *refCache) Offer(r sroute.Route) (kept, added bool, evicted ids.ID) {
	evicted = c.owner
	if len(r) < 2 || r.Src() != c.owner || r.Dst() == c.owner {
		return false, false, evicted
	}
	dst := r.Dst()
	if old, ok := c.routes[dst]; ok {
		if r.Hops() < old.Hops() {
			c.routes[dst] = r.Clone()
			return true, false, evicted
		}
		return false, false, evicted
	}
	if c.mode == Unbounded {
		c.routes[dst] = r.Clone()
		return true, true, evicted
	}
	d := dirIndex(ids.DirOf(c.owner, dst))
	k := ids.IntervalIndex(ids.LineDist(c.owner, dst))
	if k < 0 {
		return false, false, evicted
	}
	if c.has[d][k] {
		inc := c.slot[d][k]
		dNew, dOld := ids.LineDist(c.owner, dst), ids.LineDist(c.owner, inc)
		if dNew > dOld || (dNew == dOld && r.Hops() >= c.routes[inc].Hops()) {
			return false, false, evicted
		}
		delete(c.routes, inc)
		evicted = inc
	}
	c.slot[d][k] = dst
	c.has[d][k] = true
	c.routes[dst] = r.Clone()
	return true, true, evicted
}

func (c *refCache) Remove(dst ids.ID) bool {
	if _, ok := c.routes[dst]; !ok {
		return false
	}
	delete(c.routes, dst)
	if c.mode == Bounded {
		d := dirIndex(ids.DirOf(c.owner, dst))
		k := ids.IntervalIndex(ids.LineDist(c.owner, dst))
		if k >= 0 && c.has[d][k] && c.slot[d][k] == dst {
			c.has[d][k] = false
		}
	}
	return true
}

func (c *refCache) Destinations() []ids.ID {
	out := make([]ids.ID, 0, len(c.routes))
	for dst := range c.routes {
		out = append(out, dst)
	}
	ids.SortAsc(out)
	return out
}

func (c *refCache) NeighborsDir(d ids.Dir) []ids.ID {
	var out []ids.ID
	for dst := range c.routes {
		if ids.DirOf(c.owner, dst) == d {
			out = append(out, dst)
		}
	}
	ids.SortAsc(out)
	return out
}

func (c *refCache) Nearest(d ids.Dir) (ids.ID, bool) {
	var best ids.ID
	found := false
	for dst := range c.routes {
		if ids.DirOf(c.owner, dst) != d {
			continue
		}
		if !found || ids.LineDist(c.owner, dst) < ids.LineDist(c.owner, best) {
			best, found = dst, true
		}
	}
	return best, found
}

func (c *refCache) BestToward(target ids.ID) (Candidate, bool) {
	var via sroute.Route
	bestDist := ids.RingDist(c.owner, target)
	for _, r := range c.routes {
		for i := 1; i < len(r); i++ {
			node := r[i]
			if node == c.owner {
				continue
			}
			dist := ids.RingDist(node, target)
			if dist > bestDist || (via == nil && dist == bestDist) {
				continue
			}
			if dist == bestDist {
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

func (c *refCache) IntervalOccupancy() (left, right int) {
	var seen [2][ids.NumIntervals]bool
	for dst := range c.routes {
		seen[dirIndex(ids.DirOf(c.owner, dst))][ids.IntervalIndex(ids.LineDist(c.owner, dst))] = true
	}
	for k := 0; k < ids.NumIntervals; k++ {
		if seen[0][k] {
			left++
		}
		if seen[1][k] {
			right++
		}
	}
	return left, right
}

func (c *refCache) TotalRouteNodes() int {
	total := 0
	for _, r := range c.routes {
		total += len(r)
	}
	return total
}

// compareWithRef reports the first observable difference between the cache
// and the reference model, or "" if there is none. targets are the
// BestToward probes.
func compareWithRef(c *Cache, ref *refCache, targets []ids.ID) string {
	if got, want := c.Destinations(), ref.Destinations(); !slices.Equal(got, want) {
		return fmt.Sprintf("Destinations = %v, want %v", got, want)
	}
	if c.Len() != len(ref.routes) {
		return fmt.Sprintf("Len = %d, want %d", c.Len(), len(ref.routes))
	}
	var each []ids.ID
	c.Each(func(dst ids.ID, r sroute.Route) {
		each = append(each, dst)
		if !r.Equal(ref.routes[dst]) {
			each = append(each, 0) // poison: the route differs
		}
	})
	if !slices.Equal(each, ref.Destinations()) {
		return fmt.Sprintf("Each visited %v, want %v with equal routes", each, ref.Destinations())
	}
	for dst, r := range ref.routes {
		if !c.Route(dst).Equal(r) {
			return fmt.Sprintf("Route(%v) = %v, want %v", dst, c.Route(dst), r)
		}
	}
	for _, d := range [2]ids.Dir{ids.Left, ids.Right} {
		want := ref.NeighborsDir(d)
		if got := c.NeighborsDir(d); !slices.Equal(got, want) {
			return fmt.Sprintf("NeighborsDir(%v) = %v, want %v", d, got, want)
		}
		var dir []ids.ID
		c.EachDir(d, func(dst ids.ID, r sroute.Route) {
			if r.Equal(ref.routes[dst]) {
				dir = append(dir, dst)
			}
		})
		if !slices.Equal(dir, want) {
			return fmt.Sprintf("EachDir(%v) visited %v, want %v", d, dir, want)
		}
		gv, gok := c.Nearest(d)
		wv, wok := ref.Nearest(d)
		if gv != wv || gok != wok {
			return fmt.Sprintf("Nearest(%v) = %v,%v, want %v,%v", d, gv, gok, wv, wok)
		}
	}
	for _, target := range targets {
		got, gok := c.BestToward(target)
		want, wok := ref.BestToward(target)
		if gok != wok || got.Node != want.Node || !got.Via.Equal(want.Via) {
			return fmt.Sprintf("BestToward(%v) = %+v,%v, want %+v,%v", target, got, gok, want, wok)
		}
	}
	gl, gr := c.IntervalOccupancy()
	wl, wr := ref.IntervalOccupancy()
	if gl != wl || gr != wr {
		return fmt.Sprintf("IntervalOccupancy = %d,%d, want %d,%d", gl, gr, wl, wr)
	}
	if c.TotalRouteNodes() != ref.TotalRouteNodes() {
		return fmt.Sprintf("TotalRouteNodes = %d, want %d", c.TotalRouteNodes(), ref.TotalRouteNodes())
	}
	return ""
}

// playCacheScript decodes script into cache operations, applies each to a
// Cache and to the reference model, and fails at the first difference.
// The first byte picks the mode. Destinations and intermediate hops come
// from a pool of identifiers on both sides of the owner, close enough that
// interval slots are contested and routes to one destination compete on
// length.
func playCacheScript(t *testing.T, script []byte) {
	t.Helper()
	const owner = ids.ID(1000)
	pool := []ids.ID{1, 500, 744, 900, 960, 968, 990, 995, 999, 1001, 1002, 1003, 1010, 1040, 1045, 1050, 1100, 1500, 2000, 1 << 40}
	mode := Bounded
	if len(script) > 0 && script[0]&1 == 1 {
		mode = Unbounded
	}
	c, ref := New(owner, mode), newRef(owner, mode)
	pos := 1
	next := func() int {
		if pos >= len(script) {
			return 0
		}
		pos++
		return int(script[pos-1])
	}
	targets := []ids.ID{0, 999, 1000, 1001, 1042, 1 << 39, 1<<64 - 1}
	for step := 0; pos < len(script); step++ {
		op := next()
		var what string
		switch op % 8 {
		case 0, 1, 2, 3, 4: // Offer (Insert on 4) owner → hops → dst
			r := sroute.Route{owner}
			for h := next() % 4; h > 0; h-- {
				r = append(r, pool[next()%len(pool)])
			}
			r = append(r, pool[next()%len(pool)])
			if op%8 == 4 {
				got, want := c.Insert(r), ref.Insert(r)
				what = fmt.Sprintf("Insert(%v)", r)
				if got != want {
					t.Fatalf("script %x step %d: %s = %v, want %v", script, step, what, got, want)
				}
			} else {
				gk, ga, ge := c.Offer(r)
				wk, wa, we := ref.Offer(r)
				what = fmt.Sprintf("Offer(%v)", r)
				if gk != wk || ga != wa || ge != we {
					t.Fatalf("script %x step %d: %s = %v,%v,%v, want %v,%v,%v", script, step, what, gk, ga, ge, wk, wa, we)
				}
			}
			r[len(r)-1] = 7 // the caller's route is the caller's: the cache keeps a copy
		case 5, 6: // Remove
			dst := pool[next()%len(pool)]
			what = fmt.Sprintf("Remove(%v)", dst)
			if got, want := c.Remove(dst), ref.Remove(dst); got != want {
				t.Fatalf("script %x step %d: %s = %v, want %v", script, step, what, got, want)
			}
		case 7: // Clone, then carry on with the clone; the original must not move.
			cl := c.Clone()
			before := c.Destinations()
			cl.Remove(pool[next()%len(pool)])
			if !slices.Equal(c.Destinations(), before) {
				t.Fatalf("script %x step %d: removing from a clone changed the original", script, step)
			}
			c = c.Clone()
			what = "Clone"
		}
		targets[0] = pool[op%len(pool)] + ids.ID(op%3)
		if diff := compareWithRef(c, ref, targets); diff != "" {
			t.Fatalf("script %x step %d, after %s: %s", script, step, what, diff)
		}
	}
}

// TestCacheMatchesReference runs random scripts in both modes against the
// map-based reference model, comparing every query after every operation.
func TestCacheMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 2000; i++ {
		script := make([]byte, 1+rng.Intn(200))
		rng.Read(script)
		playCacheScript(t, script)
	}
}

// FuzzCacheScript hands the script decoder to the fuzzer.
func FuzzCacheScript(f *testing.F) {
	f.Add([]byte{0, 0, 0, 15, 0, 0, 13, 0, 0, 14})             // bounded: 1050, then closer 1040 takes the slot, 1045 loses
	f.Add([]byte{0, 0, 2, 3, 4, 6, 0, 0, 6, 5, 6})             // bounded: a shorter route to a cached destination
	f.Add([]byte{1, 0, 0, 15, 0, 1, 3, 15, 5, 15, 7, 15})      // unbounded: insert, replace, remove, clone
	f.Add([]byte{0, 0, 0, 4, 0, 0, 5, 0, 0, 6, 5, 5, 0, 0, 7}) // bounded: left side, remove frees the slot
	f.Fuzz(func(t *testing.T, script []byte) {
		if len(script) > 1<<10 {
			t.Skip()
		}
		playCacheScript(t, script)
	})
}
