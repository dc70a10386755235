package node

import "repro/internal/ids"

// Wrap is one node's §4 ring-closure state: its wrap partners, the ring
// neighbors that turn the sorted line into the ring. The node with an empty
// left side discovers its ring predecessor (the maximum node), the node
// with an empty right side its ring successor (the minimum). R is what the
// protocol keeps per partner: SSR the source route to it, VRR nothing (the
// wrap path lives in the path table).
//
// The rules, shared by every protocol that closes the ring by discovery:
//
//   - Wrap partners are ring state, not line neighbors, and are exempt from
//     linearization by identity regardless of side (Has): the minimum
//     node's ring predecessor is the maximum node, which lies to its
//     line-right.
//   - A wrap is legitimate only while the corresponding line side is empty
//     (Revalidate): a non-extremal node that adopted a partner during a
//     transient empty-side phase would otherwise exempt its true line
//     neighbor from linearization forever.
//   - Adoption is best-wins, not last-wins (Adopt): acknowledgments can
//     arrive out of order, a stale pre-line discovery after the correct one.
//   - An established wrap is dropped when the node learns of a ring-closer
//     candidate (Revalidate), and the protocols re-probe it periodically: a
//     wrap acknowledged by a transient dead end would otherwise freeze.
type Wrap[R any] struct {
	self        ids.ID
	left, right wrapSide[R]
}

type wrapSide[R any] struct {
	partner ids.ID
	has     bool
	state   R
}

// WrapRefreshEvery is the re-probe period in maintenance ticks: a node with
// an empty side re-sends discovery this often even while it holds a wrap.
const WrapRefreshEvery = 8

// NewWrap returns the empty ring-closure state of node self.
func NewWrap[R any](self ids.ID) Wrap[R] { return Wrap[R]{self: self} }

// RingMetric ranks candidates for the ring neighbor of origin on the given
// side, smaller is closer: Left wants the ring predecessor, so candidates
// are ranked by clockwise distance *to* origin; Right wants the ring
// successor, ranked by clockwise distance *from* origin. It is both the
// greedy metric of a discovery launched by origin in that direction and the
// order Adopt and Revalidate judge partners by.
func RingMetric(origin ids.ID, side ids.Dir) func(ids.ID) uint64 {
	if side == ids.Left {
		return func(x ids.ID) uint64 { return ids.RingDist(x, origin) }
	}
	return func(x ids.ID) uint64 { return ids.RingDist(origin, x) }
}

func (w *Wrap[R]) side(d ids.Dir) *wrapSide[R] {
	if d == ids.Left {
		return &w.left
	}
	return &w.right
}

// Partner returns the wrap partner on side d, if one is established.
func (w *Wrap[R]) Partner(d ids.Dir) (ids.ID, bool) {
	s := w.side(d)
	return s.partner, s.has
}

// State returns what the protocol stored with the partner on side d (the
// zero R when none is established).
func (w *Wrap[R]) State(d ids.Dir) R { return w.side(d).state }

// Has reports whether u is a wrap partner on either side.
func (w *Wrap[R]) Has(u ids.ID) bool {
	return (w.left.has && w.left.partner == u) || (w.right.has && w.right.partner == u)
}

// Drop clears side d.
func (w *Wrap[R]) Drop(d ids.Dir) { *w.side(d) = wrapSide[R]{} }

// Forget clears every side whose partner is u (u left or died).
func (w *Wrap[R]) Forget(u ids.ID) {
	for _, d := range [2]ids.Dir{ids.Left, ids.Right} {
		if p, ok := w.Partner(d); ok && p == u {
			w.Drop(d)
		}
	}
}

// Adopt installs partner on side d if the side is empty or partner is
// strictly ring-closer than the incumbent, and reports whether it did.
func (w *Wrap[R]) Adopt(d ids.Dir, partner ids.ID, state R) bool {
	s, metric := w.side(d), RingMetric(w.self, d)
	if s.has && metric(s.partner) <= metric(partner) {
		return false
	}
	*s = wrapSide[R]{partner: partner, has: true, state: state}
	return true
}

// Revalidate drops the wraps that are no longer legitimate. First, Left
// before Right, a wrap whose line side is no longer empty — sideEmpty is
// the protocol's side scan, which itself excludes wrap partners, so Right
// is scanned after a Left drop has taken effect. Then, in the same order,
// a wrap that some candidate beats under the side's ring metric; candidates
// (the protocol's known identifiers, self ignored) is called only if a
// wrap is left to judge.
func (w *Wrap[R]) Revalidate(sideEmpty func(ids.Dir) bool, candidates func() []ids.ID) {
	for _, d := range [2]ids.Dir{ids.Left, ids.Right} {
		if w.side(d).has && !sideEmpty(d) {
			w.Drop(d)
		}
	}
	if !w.left.has && !w.right.has {
		return
	}
	known := candidates()
	for _, d := range [2]ids.Dir{ids.Left, ids.Right} {
		s, metric := w.side(d), RingMetric(w.self, d)
		if !s.has {
			continue
		}
		best := metric(s.partner)
		for _, x := range known {
			if x != w.self && metric(x) < best {
				w.Drop(d)
				break
			}
		}
	}
}

// AtExtremes reports whether min and max — the wrap states of the true
// extremal nodes — have acknowledged each other: the ring-closure clause of
// the consistency oracles.
func AtExtremes[R any](min, max *Wrap[R]) bool {
	return min.left.has && min.left.partner == max.self &&
		max.right.has && max.right.partner == min.self
}
