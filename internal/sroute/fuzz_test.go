package sroute

import (
	"testing"

	"repro/internal/ids"
)

func routeFrom(data []byte) Route {
	r := make(Route, 0, len(data))
	for _, b := range data {
		r = append(r, ids.ID(b%16)) // small pool forces collisions and loops
	}
	return r
}

func assertSimple(t *testing.T, r Route, op string) {
	t.Helper()
	if !simpleBySet(r) {
		t.Fatalf("%s produced a looped route %v", op, r)
	}
}

// simpleBySet is Route.Simple the obvious way.
func simpleBySet(r Route) bool {
	seen := ids.NewSet()
	for _, v := range r {
		if !seen.Add(v) {
			return false
		}
	}
	return true
}

// FuzzRouteOps drives the route-composition primitives (the linearize-step
// inputs: New, Append, ElideLoops, Reverse) with arbitrary hop sequences
// and checks the algebraic contracts: results are always simple routes,
// loop elision preserves the endpoints, composition joins source to
// destination.
func FuzzRouteOps(f *testing.F) {
	f.Add([]byte{1, 2, 3}, []byte{3, 4})
	f.Add([]byte{1, 2, 1, 3}, []byte{3, 2, 3})
	f.Add([]byte{}, []byte{5, 5, 5})
	f.Add([]byte{9, 8, 7, 9}, []byte{9, 1})
	f.Fuzz(func(t *testing.T, a, b []byte) {
		ra, rb := routeFrom(a), routeFrom(b)

		if ra.Simple() != simpleBySet(ra) {
			t.Fatalf("Simple(%v) = %v", ra, ra.Simple())
		}
		if r, err := New(ra.Clone()...); err == nil {
			assertSimple(t, r, "New")
			if len(r) < 2 {
				t.Fatalf("New accepted a too-short route %v", r)
			}
		}

		el := ra.ElideLoops()
		if len(ra) > 0 {
			if len(el) == 0 {
				t.Fatalf("ElideLoops emptied a non-empty route %v", ra)
			}
			assertSimple(t, el, "ElideLoops")
			if el.Src() != ra.Src() || el.Dst() != ra.Dst() {
				t.Fatalf("ElideLoops moved endpoints: %v -> %v", ra, el)
			}
			if len(el) > len(ra) {
				t.Fatalf("ElideLoops grew the route: %v -> %v", ra, el)
			}
		}

		if j, err := ra.Append(rb); err == nil {
			assertSimple(t, j, "Append")
			if j.Src() != ra.Src() || j.Dst() != rb.Dst() {
				t.Fatalf("Append endpoints wrong: %v + %v -> %v", ra, rb, j)
			}
		}

		rev := ra.Reverse()
		if len(rev) != len(ra) {
			t.Fatalf("Reverse changed length: %v -> %v", ra, rev)
		}
		rev2 := rev.Reverse()
		if !rev2.Equal(ra) {
			t.Fatalf("double Reverse is not identity: %v -> %v", ra, rev2)
		}
		if buf := rb.ReverseInto(rb.Clone()); !ra.ReverseInto(buf).Equal(rev) {
			t.Fatalf("ReverseInto over %v differs from Reverse: %v", rb, ra.ReverseInto(buf))
		}
	})
}
