// Package sroute implements source routes, the virtual links of SSR.
//
// A source route is an ordered list of node identifiers starting at the
// route's owner and ending at the destination; each consecutive pair must be
// a physical link. SSR nodes exchange messages containing source routes,
// store them in their caches, and "may append (parts of) them to each other
// to create new source routes" (§1). Appending two routes and eliding loops
// is exactly how an update "A→C" received by B becomes B's route "B→C" in
// the ISPRP example of §3, and how linearization's neighbor-notification
// pointers are materialized for SSR in §4.
package sroute

import (
	"errors"
	"fmt"
	"slices"
	"strings"

	"repro/internal/graph"
	"repro/internal/ids"
)

// Route is a source route: a path of node identifiers from source to
// destination, inclusive. A valid route has at least one hop and no
// repeated nodes.
type Route []ids.ID

// Errors returned by route constructors.
var (
	ErrTooShort = errors.New("sroute: route needs at least two nodes")
	ErrNoJoin   = errors.New("sroute: routes do not share the join node")
	ErrHasCycle = errors.New("sroute: route revisits a node")
	ErrNotAPath = errors.New("sroute: consecutive nodes are not physically linked")
)

// New validates and returns a route over the given nodes.
func New(nodes ...ids.ID) (Route, error) {
	if len(nodes) < 2 {
		return nil, ErrTooShort
	}
	if !Route(nodes).Simple() {
		return nil, ErrHasCycle
	}
	return Route(nodes), nil
}

// Src returns the first node of the route.
func (r Route) Src() ids.ID { return r[0] }

// Dst returns the last node of the route.
func (r Route) Dst() ids.ID { return r[len(r)-1] }

// Hops returns the number of physical transmissions the route costs.
func (r Route) Hops() int {
	if len(r) == 0 {
		return 0
	}
	return len(r) - 1
}

// Via reports whether the route's first hop is peer: a route that a lease
// verdict against the link to peer makes unusable. False for nil and
// single-node routes.
func (r Route) Via(peer ids.ID) bool { return len(r) >= 2 && r[1] == peer }

// IndexOf returns the position of v on the route, or -1.
func (r Route) IndexOf(v ids.ID) int {
	for i, x := range r {
		if x == v {
			return i
		}
	}
	return -1
}

// Reverse returns the route from destination back to source. Physical links
// are bidirectional, so the reverse of a valid route is valid; SSR uses
// reversed routes to acknowledge messages.
func (r Route) Reverse() Route { return r.ReverseInto(make(Route, len(r))) }

// ReverseInto is Reverse written over buf, which is grown if it is too
// short and must not overlap r: a node that reverses every route it
// receives keeps one buffer and allocates nothing.
func (r Route) ReverseInto(buf Route) Route {
	buf = slices.Grow(buf[:0], len(r))[:len(r)]
	for i, v := range r {
		buf[len(r)-1-i] = v
	}
	return buf
}

// Append concatenates r (ending at the join node) with next (starting at
// the join node), then elides any loops, producing a simple route from
// r.Src() to next.Dst(). This is the route-composition primitive of §1.
// It allocates once: loop elision shortens the concatenation in place.
func (r Route) Append(next Route) (Route, error) { return r.AppendInto(nil, next) }

// AppendInto is Append written over buf, which is replaced by a new buffer
// if it is too short and must not overlap r or next: a node that composes
// a route only to read it keeps one buffer and allocates nothing.
func (r Route) AppendInto(buf, next Route) (Route, error) {
	if len(r) < 2 || len(next) < 2 {
		return nil, ErrTooShort
	}
	if r.Dst() != next.Src() {
		return nil, ErrNoJoin
	}
	combined := buf[:0]
	if need := len(r) + len(next) - 1; cap(combined) < need {
		combined = make(Route, 0, need)
	}
	combined = append(combined, r...)
	combined = append(combined, next[1:]...)
	return elide(combined[:0], combined), nil
}

// ElideLoops removes cycles: whenever a node reappears, the segment between
// its occurrences is cut. The result is a simple route over the same
// physical links, never longer than the input.
func (r Route) ElideLoops() Route { return elide(make(Route, 0, len(r)), r) }

// elide appends r to out, cutting back to a node's first occurrence
// whenever it reappears. out may be r[:0]: it never grows past the element
// being read. Routes are short, so scanning out beats building a set.
func elide(out, r Route) Route {
	for _, v := range r {
		if i := out.IndexOf(v); i >= 0 {
			out = out[:i+1]
			continue
		}
		out = append(out, v)
	}
	return out
}

// Simple reports whether no node repeats on r. Routes are short, so the
// quadratic scan beats building a set.
func (r Route) Simple() bool {
	for i := 1; i < len(r); i++ {
		if r[:i].IndexOf(r[i]) >= 0 {
			return false
		}
	}
	return true
}

// ValidOn checks that the route is simple and every consecutive pair is an
// edge of the physical graph g.
func (r Route) ValidOn(g *graph.Graph) error {
	if len(r) < 2 {
		return ErrTooShort
	}
	if !r.Simple() {
		return ErrHasCycle
	}
	for i := 0; i+1 < len(r); i++ {
		if !g.HasEdge(r[i], r[i+1]) {
			return fmt.Errorf("%w: %s-%s", ErrNotAPath, r[i], r[i+1])
		}
	}
	return nil
}

// Clone returns an independent copy.
func (r Route) Clone() Route { return append(Route(nil), r...) }

// Equal reports element-wise equality.
func (r Route) Equal(o Route) bool {
	if len(r) != len(o) {
		return false
	}
	for i := range r {
		if r[i] != o[i] {
			return false
		}
	}
	return true
}

// String renders "a>b>c".
func (r Route) String() string {
	parts := make([]string, len(r))
	for i, v := range r {
		parts[i] = v.String()
	}
	return strings.Join(parts, ">")
}
