package ids

import (
	"math"
	"testing"
	"testing/quick"
)

func TestRingDist(t *testing.T) {
	cases := []struct {
		a, b ID
		want uint64
	}{
		{0, 0, 0},
		{0, 1, 1},
		{1, 0, math.MaxUint64},
		{5, 10, 5},
		{10, 5, math.MaxUint64 - 4},
		{math.MaxUint64, 0, 1},
	}
	for _, c := range cases {
		if got := RingDist(c.a, c.b); got != c.want {
			t.Errorf("RingDist(%d,%d) = %d, want %d", c.a, c.b, got, c.want)
		}
	}
}

func TestLineDist(t *testing.T) {
	if got := LineDist(3, 10); got != 7 {
		t.Errorf("LineDist(3,10) = %d, want 7", got)
	}
	if got := LineDist(10, 3); got != 7 {
		t.Errorf("LineDist(10,3) = %d, want 7", got)
	}
	if got := LineDist(5, 5); got != 0 {
		t.Errorf("LineDist(5,5) = %d, want 0", got)
	}
}

func TestBetween(t *testing.T) {
	cases := []struct {
		x, a, b ID
		want    bool
	}{
		{5, 1, 10, true},
		{1, 1, 10, false},
		{10, 1, 10, false},
		{11, 1, 10, false},
		// wrapped arc (10, 1): contains 11..max and 0.
		{11, 10, 1, true},
		{0, 10, 1, true},
		{5, 10, 1, false},
		// degenerate arc a==b spans everything but a.
		{5, 7, 7, true},
		{7, 7, 7, false},
	}
	for _, c := range cases {
		if got := Between(c.x, c.a, c.b); got != c.want {
			t.Errorf("Between(%d,%d,%d) = %v, want %v", c.x, c.a, c.b, got, c.want)
		}
	}
}

func TestDirOf(t *testing.T) {
	if DirOf(10, 5) != Left {
		t.Error("5 should be left of 10")
	}
	if DirOf(10, 15) != Right {
		t.Error("15 should be right of 10")
	}
	if Left.Opposite() != Right || Right.Opposite() != Left {
		t.Error("Opposite is broken")
	}
	if Left.String() != "left" || Right.String() != "right" {
		t.Error("Dir.String is broken")
	}
}

func TestIntervalIndex(t *testing.T) {
	cases := []struct {
		d    uint64
		want int
	}{
		{0, -1},
		{1, 0},
		{2, 1},
		{3, 1},
		{4, 2},
		{7, 2},
		{8, 3},
		{1 << 40, 40},
		{math.MaxUint64, 63},
	}
	for _, c := range cases {
		if got := IntervalIndex(c.d); got != c.want {
			t.Errorf("IntervalIndex(%d) = %d, want %d", c.d, got, c.want)
		}
	}
}

func TestSlot(t *testing.T) {
	const max = math.MaxUint64
	cases := []struct {
		self, other ID
		want        int
	}{
		{5, 5, -1},
		{0, 0, -1},
		{max, max, -1},
		{100, 99, 0},
		{100, 98, 1},
		{100, 97, 1},
		{100, 101, NumIntervals},
		{100, 102, NumIntervals + 1},
		{100, 103, NumIntervals + 1},
		{1 << 63, 0, 63},
		{0, 1 << 63, NumIntervals + 63},
		{0, 1, NumIntervals},
		{0, max, NumIntervals + 63},
		{max, max - 1, 0},
		{max, 0, 63},
		{max, max - 1<<63, 63},
	}
	for _, c := range cases {
		if got := Slot(c.self, c.other); got != c.want {
			t.Errorf("Slot(%d,%d) = %d, want %d", c.self, c.other, got, c.want)
		}
	}
	// Left slots lie below NumIntervals, right ones from it up to NumSlots.
	f := func(self, other ID) bool {
		got := Slot(self, other)
		switch {
		case other < self:
			return got >= 0 && got < NumIntervals
		case other > self:
			return got >= NumIntervals && got < NumSlots
		}
		return got == -1
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestIntervalIndexProperty(t *testing.T) {
	// Property: for d > 0, 2^k <= d < 2^(k+1) where k = IntervalIndex(d).
	f := func(d uint64) bool {
		if d == 0 {
			return IntervalIndex(d) == -1
		}
		k := IntervalIndex(d)
		if k < 0 || k >= NumIntervals {
			return false
		}
		lo := uint64(1) << uint(k)
		if d < lo {
			return false
		}
		if k < 63 {
			hi := uint64(1) << uint(k+1)
			if d >= hi {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestBetweenProperty(t *testing.T) {
	// Property: for distinct a,b, every x != a,b is in exactly one of the
	// arcs (a,b) and (b,a).
	f := func(x, a, b ID) bool {
		if a == b || x == a || x == b {
			return true
		}
		return Between(x, a, b) != Between(x, b, a)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestRingDistProperty(t *testing.T) {
	// Property: RingDist(a,b) + RingDist(b,a) == 0 (mod 2^64) for a != b.
	f := func(a, b ID) bool {
		if a == b {
			return RingDist(a, b) == 0
		}
		return RingDist(a, b)+RingDist(b, a) == 0
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestMinMax(t *testing.T) {
	if _, ok := Max(nil); ok {
		t.Error("Max of empty should not be ok")
	}
	if _, ok := Min(nil); ok {
		t.Error("Min of empty should not be ok")
	}
	s := []ID{5, 1, 9, 3}
	if m, _ := Max(s); m != 9 {
		t.Errorf("Max = %d, want 9", m)
	}
	if m, _ := Min(s); m != 1 {
		t.Errorf("Min = %d, want 1", m)
	}
}

func TestSortAscDesc(t *testing.T) {
	s := []ID{5, 1, 9, 3}
	SortAsc(s)
	for i := 1; i < len(s); i++ {
		if s[i-1] > s[i] {
			t.Fatalf("SortAsc produced %v", s)
		}
	}
}

func TestSet(t *testing.T) {
	s := NewSet(3, 1, 2)
	if s.Len() != 3 {
		t.Fatalf("Len = %d, want 3", s.Len())
	}
	if !s.Add(4) {
		t.Error("Add(4) should report newly added")
	}
	if s.Add(4) {
		t.Error("Add(4) twice should report already present")
	}
	if !s.Has(4) {
		t.Error("Has(4) should be true")
	}
	if !s.Remove(4) {
		t.Error("Remove(4) should report present")
	}
	if s.Remove(4) {
		t.Error("Remove(4) twice should report absent")
	}
	sorted := s.Sorted()
	want := []ID{1, 2, 3}
	if len(sorted) != len(want) {
		t.Fatalf("Sorted = %v, want %v", sorted, want)
	}
	for i := range want {
		if sorted[i] != want[i] {
			t.Fatalf("Sorted = %v, want %v", sorted, want)
		}
	}
	c := s.Clone()
	c.Add(99)
	if s.Has(99) {
		t.Error("Clone should be independent of the original")
	}
}

func TestIDString(t *testing.T) {
	if ID(42).String() != "42" {
		t.Errorf("ID(42).String() = %q", ID(42).String())
	}
}
