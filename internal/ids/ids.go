// Package ids defines the node identifier space shared by SSR, VRR, ISPRP
// and the linearization algorithms.
//
// Identifiers are unsigned 64-bit integers. Two views of the identifier
// space matter in this reproduction:
//
//   - The *line* view: the natural total order on uint64. Linearization
//     (Kutzner/Fuhrmann §3) deliberately treats the address space as linear,
//     because the total order makes local consistency equivalent to global
//     consistency.
//   - The *ring* view: the circularly connected address space used by SSR and
//     VRR for greedy routing once the virtual ring has been closed.
//
// The package also provides the exponentially growing interval partitioning
// that "linearization with shortcut neighbors" (LSN) and SSR's route caches
// use to bound per-node state to O(log |space|) entries.
package ids

import (
	"cmp"
	"fmt"
	"math/bits"
	"slices"
)

// ID is a globally unique node identifier. The zero value is a valid
// identifier; protocols in this module never reserve it.
type ID uint64

// String renders the identifier in decimal, matching the small example
// identifiers used in the paper's figures.
func (a ID) String() string { return fmt.Sprintf("%d", uint64(a)) }

// Less reports whether a precedes b in the line view.
func (a ID) Less(b ID) bool { return a < b }

// Cmp returns -1, 0, or +1 as a is less than, equal to, or greater than b in
// the line view.
func (a ID) Cmp(b ID) int {
	switch {
	case a < b:
		return -1
	case a > b:
		return +1
	default:
		return 0
	}
}

// RingDist returns the clockwise distance from a to b on the virtual ring,
// i.e. the number of identifier steps needed to reach b from a moving in the
// direction of increasing identifiers with wrap-around.
func RingDist(a, b ID) uint64 { return uint64(b) - uint64(a) }

// AbsRingDist returns the length of the shorter arc between a and b on the
// virtual ring.
func AbsRingDist(a, b ID) uint64 {
	cw := RingDist(a, b)
	ccw := RingDist(b, a)
	if cw < ccw {
		return cw
	}
	return ccw
}

// LineDist returns |a-b| in the line view.
func LineDist(a, b ID) uint64 {
	if a < b {
		return uint64(b) - uint64(a)
	}
	return uint64(a) - uint64(b)
}

// Between reports whether x lies on the clockwise arc (a, b) exclusive of
// both endpoints. This is the classic Chord-style interval test that SSR's
// greedy routing and ISPRP's successor rewiring rely on. When a == b the arc
// spans the whole ring except a itself.
func Between(x, a, b ID) bool {
	if a == b {
		return x != a
	}
	if a < b {
		return a < x && x < b
	}
	return x > a || x < b
}

// CloserOnRing reports whether candidate x is strictly closer to target t
// than y is, measured as clockwise distance from the candidate to the
// target. SSR's greedy rule ("virtually closest to the final destination")
// uses this predicate to pick the next intermediate destination.
func CloserOnRing(x, y, t ID) bool {
	return RingDist(x, t) < RingDist(y, t)
}

// Dir is a direction on the line view of the identifier space.
type Dir int8

const (
	// Left is the direction of decreasing identifiers.
	Left Dir = -1
	// Right is the direction of increasing identifiers.
	Right Dir = +1
)

// String returns "left" or "right".
func (d Dir) String() string {
	if d == Left {
		return "left"
	}
	return "right"
}

// Opposite returns the other direction.
func (d Dir) Opposite() Dir { return -d }

// DirOf returns the direction of other relative to self in the line view.
// It must not be called with other == self.
func DirOf(self, other ID) Dir {
	if other < self {
		return Left
	}
	return Right
}

// IntervalIndex returns the index of the exponentially growing interval that
// a neighbor at line distance d falls into: interval k covers distances in
// [2^k, 2^(k+1)). Distance 0 is not a valid neighbor distance; the function
// returns -1 in that case. There are at most 64 intervals.
func IntervalIndex(d uint64) int {
	if d == 0 {
		return -1
	}
	return 63 - bits.LeadingZeros64(d)
}

// NumIntervals is the number of exponential intervals per direction.
const NumIntervals = 64

// SortAsc sorts s ascending in the line view.
func SortAsc(s []ID) {
	slices.Sort(s)
}

// SortDesc sorts s descending in the line view.
func SortDesc(s []ID) {
	slices.SortFunc(s, func(a, b ID) int { return cmp.Compare(b, a) })
}

// Max returns the largest identifier in s, or ok=false if s is empty.
// ISPRP and VRR use the node with the numerically largest address as the
// representative that floods the network.
func Max(s []ID) (max ID, ok bool) {
	if len(s) == 0 {
		return 0, false
	}
	max = s[0]
	for _, x := range s[1:] {
		if x > max {
			max = x
		}
	}
	return max, true
}

// Min returns the smallest identifier in s, or ok=false if s is empty.
func Min(s []ID) (min ID, ok bool) {
	if len(s) == 0 {
		return 0, false
	}
	min = s[0]
	for _, x := range s[1:] {
		if x < min {
			min = x
		}
	}
	return min, true
}

// Set is a set of identifiers. The zero value is an empty usable set for
// reads; use NewSet or Add (which allocates lazily) for writes.
type Set map[ID]struct{}

// NewSet returns a set containing the given members.
func NewSet(members ...ID) Set {
	s := make(Set, len(members))
	for _, m := range members {
		s[m] = struct{}{}
	}
	return s
}

// Add inserts x and reports whether it was newly added.
func (s Set) Add(x ID) bool {
	if _, ok := s[x]; ok {
		return false
	}
	s[x] = struct{}{}
	return true
}

// Remove deletes x and reports whether it was present.
func (s Set) Remove(x ID) bool {
	if _, ok := s[x]; !ok {
		return false
	}
	delete(s, x)
	return true
}

// Has reports membership.
func (s Set) Has(x ID) bool {
	_, ok := s[x]
	return ok
}

// Len returns the number of members.
func (s Set) Len() int { return len(s) }

// Sorted returns the members in ascending line order.
func (s Set) Sorted() []ID {
	out := make([]ID, 0, len(s))
	for x := range s {
		out = append(out, x)
	}
	SortAsc(out)
	return out
}

// Clone returns a copy of the set.
func (s Set) Clone() Set {
	c := make(Set, len(s))
	for x := range s {
		c[x] = struct{}{}
	}
	return c
}
