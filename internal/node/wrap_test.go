package node

import (
	"testing"

	"repro/internal/ids"
)

// On the identifier ring 10 < 50 < 90, node 10 is the minimum: its ring
// predecessor (Left wrap) is 90, and 50 is a farther candidate for it; node
// 90 is the maximum, its ring successor (Right wrap) is 10.

func TestAdoptIsBestWins(t *testing.T) {
	for _, tc := range []struct {
		name    string
		side    ids.Dir
		self    ids.ID
		offers  []ids.ID
		adopted []bool
		want    ids.ID
	}{
		{"first wins when empty", ids.Left, 10, []ids.ID{50}, []bool{true}, 50},
		{"closer replaces", ids.Left, 10, []ids.ID{50, 90}, []bool{true, true}, 90},
		{"equal is refused", ids.Left, 10, []ids.ID{90, 90}, []bool{true, false}, 90},
		{"farther is refused (out-of-order ack)", ids.Left, 10, []ids.ID{90, 50}, []bool{true, false}, 90},
		{"right side ranks by distance from self", ids.Right, 90, []ids.ID{50, 10, 50}, []bool{true, true, false}, 10},
	} {
		t.Run(tc.name, func(t *testing.T) {
			w := NewWrap[int](tc.self)
			for i, u := range tc.offers {
				if got := w.Adopt(tc.side, u, i); got != tc.adopted[i] {
					t.Errorf("offer %d (%v): adopted = %v, want %v", i, u, got, tc.adopted[i])
				}
			}
			p, ok := w.Partner(tc.side)
			if !ok || p != tc.want {
				t.Errorf("partner = %v (has=%v), want %v", p, ok, tc.want)
			}
			// The stored state belongs to the offer that won.
			if tc.offers[w.State(tc.side)] != tc.want {
				t.Errorf("state %d is not the winning offer's", w.State(tc.side))
			}
			if _, ok := w.Partner(tc.side.Opposite()); ok {
				t.Error("the other side must stay empty")
			}
		})
	}
}

func TestHasDropForget(t *testing.T) {
	w := NewWrap[string](50)
	w.Adopt(ids.Left, 10, "l")
	w.Adopt(ids.Right, 90, "r")
	// Has is by identity, whichever side the partner sits on.
	for _, u := range []ids.ID{10, 90} {
		if !w.Has(u) {
			t.Errorf("Has(%v) = false", u)
		}
	}
	if w.Has(50) || w.Has(0) {
		t.Error("Has must not match a non-partner (or the zero identifier of an empty side)")
	}
	w.Forget(90)
	if _, ok := w.Partner(ids.Right); ok || w.Has(90) || w.State(ids.Right) != "" {
		t.Error("Forget(90) must clear the right side and its state")
	}
	if p, ok := w.Partner(ids.Left); !ok || p != 10 || w.State(ids.Left) != "l" {
		t.Error("Forget(90) must leave the left side alone")
	}
	w.Forget(77) // not a partner: no-op
	w.Drop(ids.Left)
	if w.Has(10) {
		t.Error("Drop(Left) must clear the left side")
	}
	// A dropped side accepts any partner again, however far.
	if !w.Adopt(ids.Left, 40, "again") {
		t.Error("an emptied side must adopt the first offer")
	}
}

func TestRevalidate(t *testing.T) {
	empty := func(ids.Dir) bool { return true }
	none := func() []ids.ID { return nil }

	t.Run("a non-empty side drops its wrap", func(t *testing.T) {
		w := NewWrap[struct{}](10)
		w.Adopt(ids.Left, 90, struct{}{})
		w.Adopt(ids.Right, 50, struct{}{})
		w.Revalidate(func(d ids.Dir) bool { return d == ids.Right }, none)
		if _, ok := w.Partner(ids.Left); ok {
			t.Error("left side is not empty: its wrap must go")
		}
		if _, ok := w.Partner(ids.Right); !ok {
			t.Error("right side is empty: its wrap stays")
		}
	})

	t.Run("a ring-closer candidate drops the wrap", func(t *testing.T) {
		w := NewWrap[struct{}](10)
		w.Adopt(ids.Left, 50, struct{}{})
		w.Revalidate(empty, func() []ids.ID { return []ids.ID{30, 50} })
		if _, ok := w.Partner(ids.Left); !ok {
			t.Error("30 and 50 are no closer before 10 than 50: the wrap stays")
		}
		w.Revalidate(empty, func() []ids.ID { return []ids.ID{30, 90} })
		if _, ok := w.Partner(ids.Left); ok {
			t.Error("90 is ring-closer before 10 than 50: the wrap must go")
		}
	})

	t.Run("self among the candidates is ignored", func(t *testing.T) {
		// RingDist(self, self) is 0, which would beat every partner.
		w := NewWrap[struct{}](10)
		w.Adopt(ids.Left, 90, struct{}{})
		w.Adopt(ids.Right, 50, struct{}{})
		w.Revalidate(empty, func() []ids.ID { return []ids.ID{10} })
		if !w.Has(90) || !w.Has(50) {
			t.Error("a node is not its own ring neighbor")
		}
	})

	t.Run("the right side is scanned after the left drop", func(t *testing.T) {
		// The protocols' side scan excludes wrap partners, so what it says
		// about the right side depends on whether the left wrap still stands.
		w := NewWrap[struct{}](50)
		w.Adopt(ids.Left, 90, struct{}{})
		w.Adopt(ids.Right, 10, struct{}{})
		var leftStoodWhenRightScanned bool
		w.Revalidate(func(d ids.Dir) bool {
			if d == ids.Right {
				leftStoodWhenRightScanned = w.Has(90)
			}
			return d == ids.Right
		}, none)
		if leftStoodWhenRightScanned {
			t.Error("sideEmpty(Right) ran before the left drop took effect")
		}
	})

	t.Run("candidates are not gathered without a wrap to judge", func(t *testing.T) {
		w := NewWrap[struct{}](10)
		w.Adopt(ids.Left, 90, struct{}{})
		called := false
		w.Revalidate(func(ids.Dir) bool { return false }, func() []ids.ID { called = true; return nil })
		if called {
			t.Error("both sides dropped in the first pass: nothing left to judge")
		}
	})
}

func TestAtExtremes(t *testing.T) {
	min, max, mid := NewWrap[struct{}](10), NewWrap[struct{}](90), NewWrap[struct{}](50)
	if AtExtremes(&min, &max) {
		t.Error("no wraps yet")
	}
	min.Adopt(ids.Left, 90, struct{}{})
	if AtExtremes(&min, &max) {
		t.Error("only one direction acknowledged")
	}
	max.Adopt(ids.Right, 50, struct{}{})
	if AtExtremes(&min, &max) {
		t.Error("max closed onto a non-extreme")
	}
	max.Adopt(ids.Right, 10, struct{}{})
	if !AtExtremes(&min, &max) {
		t.Error("min and max hold each other")
	}
	// The sides matter: max as min's *right* partner closes nothing.
	mid.Adopt(ids.Right, 90, struct{}{})
	if AtExtremes(&mid, &max) {
		t.Error("a right-side partner is not a ring predecessor")
	}
}
