package sroute

import (
	"errors"
	"math/rand"
	"testing"
	"testing/quick"

	"repro/internal/graph"
	"repro/internal/ids"
)

func mustRoute(t *testing.T, nodes ...ids.ID) Route {
	t.Helper()
	r, err := New(nodes...)
	if err != nil {
		t.Fatalf("New(%v): %v", nodes, err)
	}
	return r
}

func TestNewValidation(t *testing.T) {
	if _, err := New(1); !errors.Is(err, ErrTooShort) {
		t.Errorf("single node: err = %v, want ErrTooShort", err)
	}
	if _, err := New(); !errors.Is(err, ErrTooShort) {
		t.Errorf("empty: err = %v, want ErrTooShort", err)
	}
	if _, err := New(1, 2, 1); !errors.Is(err, ErrHasCycle) {
		t.Errorf("cycle: err = %v, want ErrHasCycle", err)
	}
	r := mustRoute(t, 1, 2, 3)
	if r.Src() != 1 || r.Dst() != 3 || r.Hops() != 2 {
		t.Errorf("Src/Dst/Hops wrong: %v", r)
	}
	if Route(nil).Hops() != 0 {
		t.Error("nil route has 0 hops")
	}
}

func TestIndexOf(t *testing.T) {
	r := mustRoute(t, 1, 2, 3, 4)
	if r.IndexOf(3) != 2 || r.IndexOf(9) != -1 {
		t.Error("IndexOf broken")
	}
}

func TestVia(t *testing.T) {
	for _, tc := range []struct {
		r    Route
		peer ids.ID
		want bool
	}{
		{nil, 2, false},
		{Route{2}, 2, false}, // a lone source has no first hop
		{Route{1, 2}, 2, true},
		{Route{1, 2, 3}, 2, true},
		{Route{1, 2, 3}, 3, false}, // later hops do not count
		{Route{1, 2, 3}, 1, false}, // nor does the source
	} {
		if got := tc.r.Via(tc.peer); got != tc.want {
			t.Errorf("%v.Via(%d) = %v, want %v", tc.r, tc.peer, got, tc.want)
		}
	}
}

func TestReverse(t *testing.T) {
	r := mustRoute(t, 1, 2, 3)
	rev := r.Reverse()
	if !rev.Equal(Route{3, 2, 1}) {
		t.Errorf("Reverse = %v", rev)
	}
	if !r.Equal(Route{1, 2, 3}) {
		t.Error("Reverse must not mutate the original")
	}
}

func TestReverseInto(t *testing.T) {
	buf := make(Route, 0, 4)
	r := mustRoute(t, 1, 2, 3)
	if got := r.ReverseInto(buf); !got.Equal(Route{3, 2, 1}) || &got[0] != &buf[:1][0] {
		t.Errorf("ReverseInto = %v, want 3>2>1 in the buffer's storage", got)
	}
	if got := mustRoute(t, 1, 2, 3, 4, 5).ReverseInto(buf); !got.Equal(Route{5, 4, 3, 2, 1}) {
		t.Errorf("ReverseInto past the buffer's capacity = %v", got)
	}
	if a := testing.AllocsPerRun(100, func() { buf = r.ReverseInto(buf) }); a != 0 {
		t.Errorf("ReverseInto into a large enough buffer: %v allocations, want 0", a)
	}
}

func TestAppend(t *testing.T) {
	// The paper's §3 example: B has B>A, learns A>C, derives B>C.
	ba := mustRoute(t, 20, 10) // B=20, A=10
	ac := mustRoute(t, 10, 30) // C=30
	bc, err := ba.Append(ac)
	if err != nil {
		t.Fatal(err)
	}
	if !bc.Equal(Route{20, 10, 30}) {
		t.Errorf("B>C = %v", bc)
	}
	if _, err := ba.Append(mustRoute(t, 99, 30)); !errors.Is(err, ErrNoJoin) {
		t.Errorf("mismatched join: err = %v", err)
	}
	if _, err := (Route{1}).Append(ac); !errors.Is(err, ErrTooShort) {
		t.Errorf("short base: err = %v", err)
	}
}

// TestAppendAllocations: two routes that join simply cost the one
// allocation of their concatenation, and so does a join that elides.
func TestAppendAllocations(t *testing.T) {
	for _, tc := range []struct{ a, b Route }{
		{Route{20, 10}, Route{10, 30, 40}},
		{Route{1, 2, 3}, Route{3, 2, 4}},
	} {
		if a := testing.AllocsPerRun(100, func() { _, _ = tc.a.Append(tc.b) }); a != 1 {
			t.Errorf("%v.Append(%v): %v allocations, want 1", tc.a, tc.b, a)
		}
	}
}

func TestAppendElidesLoops(t *testing.T) {
	// 1>2>3 + 3>2>4 should elide the 2..3..2 loop to 1>2>4.
	a := mustRoute(t, 1, 2, 3)
	b := mustRoute(t, 3, 2, 4)
	c, err := a.Append(b)
	if err != nil {
		t.Fatal(err)
	}
	if !c.Equal(Route{1, 2, 4}) {
		t.Errorf("loop-elided append = %v", c)
	}
	// Full backtrack: 1>2 + 2>1... not constructible (2>1 then dst==src is
	// fine as a route); appending gives a degenerate single-node route.
	d, err := mustRoute(t, 1, 2).Append(mustRoute(t, 2, 1))
	if err != nil {
		t.Fatal(err)
	}
	if len(d) != 1 || d[0] != 1 {
		t.Errorf("full backtrack = %v, want [1]", d)
	}
}

func TestElideLoopsNested(t *testing.T) {
	r := Route{1, 2, 3, 4, 2, 5, 1, 6}
	out := r.ElideLoops()
	if !out.Equal(Route{1, 6}) {
		t.Errorf("ElideLoops = %v, want 1>6", out)
	}
	// Elision re-allows nodes cut out of the kept segment.
	r2 := Route{1, 2, 3, 2, 3, 4}
	out2 := r2.ElideLoops()
	if !out2.Equal(Route{1, 2, 3, 4}) {
		t.Errorf("ElideLoops = %v, want 1>2>3>4", out2)
	}
}

func TestValidOn(t *testing.T) {
	g := graph.Line([]ids.ID{1, 2, 3, 4})
	if err := mustRoute(t, 1, 2, 3).ValidOn(g); err != nil {
		t.Errorf("valid route rejected: %v", err)
	}
	if err := mustRoute(t, 1, 3).ValidOn(g); !errors.Is(err, ErrNotAPath) {
		t.Errorf("non-path accepted: %v", err)
	}
	if err := (Route{1}).ValidOn(g); !errors.Is(err, ErrTooShort) {
		t.Errorf("short route: %v", err)
	}
	if err := (Route{1, 2, 1}).ValidOn(g); !errors.Is(err, ErrHasCycle) {
		t.Errorf("cyclic route: %v", err)
	}
}

func TestStringCloneEqual(t *testing.T) {
	r := mustRoute(t, 1, 2, 3)
	if r.String() != "1>2>3" {
		t.Errorf("String = %q", r.String())
	}
	c := r.Clone()
	c[0] = 9
	if r[0] == 9 {
		t.Error("Clone aliases")
	}
	if r.Equal(Route{1, 2}) || r.Equal(Route{1, 2, 4}) {
		t.Error("Equal broken")
	}
}

func TestAppendProperty(t *testing.T) {
	// Property: appending two valid routes on a connected graph yields a
	// simple route from a.Src() to b.Dst() that is valid on the graph.
	r := rand.New(rand.NewSource(11))
	nodes := graph.MakeIDs(30, graph.RandomIDs, r)
	g := graph.ErdosRenyi(nodes, 0.2, r)
	f := func(ai, bi, ci uint8) bool {
		a := nodes[int(ai)%len(nodes)]
		b := nodes[int(bi)%len(nodes)]
		c := nodes[int(ci)%len(nodes)]
		if a == b || b == c {
			return true
		}
		p1, _ := New(g.ShortestPath(a, b)...)
		p2, _ := New(g.ShortestPath(b, c)...)
		if p1 == nil || p2 == nil {
			return true
		}
		joined, err := p1.Append(p2)
		if err != nil {
			return false
		}
		if joined.Src() != a {
			return false
		}
		if len(joined) >= 2 {
			if joined.Dst() != c {
				return false
			}
			return joined.ValidOn(g) == nil
		}
		return a == c // fully elided: only legal when endpoints coincide
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func TestElideLoopsProperty(t *testing.T) {
	// Property: ElideLoops output is simple, no longer than input, and
	// preserves the endpoints.
	f := func(raw []uint8) bool {
		if len(raw) < 2 {
			return true
		}
		r := make(Route, len(raw))
		for i, x := range raw {
			r[i] = ids.ID(x % 16)
		}
		out := r.ElideLoops()
		if len(out) > len(r) || out[0] != r[0] {
			return false
		}
		if out[len(out)-1] != r[len(r)-1] && r[0] != r[len(r)-1] {
			// Endpoint preserved unless the whole route collapsed to src.
			if !(len(out) == 1 && out[0] == r[0]) {
				return false
			}
		}
		seen := ids.NewSet()
		for _, v := range out {
			if !seen.Add(v) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}
