package sim

import (
	"reflect"
	"testing"
)

// selfFootprint is the executor's default footprint: each node touches only
// its own index with unit weight.
func selfFootprint(i int) Footprint { return Footprint{Lo: i, Hi: i, Weight: 1} }

// spanFootprint gives node i a footprint reaching r indices to each side and
// weight proportional to its index — enough structure to exercise the
// weight-balancing and crossing-minimizing policies.
func spanFootprint(r int) FootprintFn {
	return func(i int) Footprint {
		return Footprint{Lo: i - r, Hi: i + r, Weight: float64(1 + i%7)}
	}
}

// TestClampShards pins the single clamp authority on the edge cases that
// used to be settled inconsistently across call sites.
func TestClampShards(t *testing.T) {
	cases := []struct {
		n, k, want int
	}{
		{0, 0, 1}, {0, 4, 1}, {0, -3, 1},
		{1, 0, 1}, {1, 1, 1}, {1, 8, 1},
		{2, 3, 2}, {2, 2, 2},
		{511, 256, 256}, {511, 600, 511},
		{512, 1, 1}, {512, 512, 512}, {512, 513, 512},
		{513, 513, 513}, {513, 1000, 513},
	}
	for _, c := range cases {
		if got := ClampShards(c.n, c.k); got != c.want {
			t.Errorf("ClampShards(%d, %d) = %d, want %d", c.n, c.k, got, c.want)
		}
	}
	for _, n := range []int{0, 1, 2, 511, 512, 513} {
		if got := DefaultShards(n); got != ClampShards(n, got) {
			t.Errorf("DefaultShards(%d) = %d violates its own clamp", n, got)
		}
	}
}

func TestPartitionerRegistry(t *testing.T) {
	want := []string{"contiguous", "degree-balanced", "locality"}
	if got := PartitionPolicies(); !reflect.DeepEqual(got, want) {
		t.Fatalf("PartitionPolicies() = %v, want %v", got, want)
	}
	if _, err := NewPartitioner("no-such-policy"); err == nil {
		t.Fatal("unknown policy must error")
	}
	p, err := NewPartitioner("")
	if err != nil || p.Name() != "contiguous" {
		t.Fatalf("empty name must resolve to contiguous, got %v, %v", p, err)
	}
	for _, name := range want {
		if p, err := NewPartitioner(name); err != nil || p.Name() != name {
			t.Fatalf("NewPartitioner(%q) = %v, %v", name, p, err)
		}
	}
}

// TestPoliciesProduceValidLayouts: every policy must return
// contiguous ordered shards exactly covering [0, n) for awkward shapes,
// including the clamp edge cases.
func TestPoliciesProduceValidLayouts(t *testing.T) {
	for _, name := range PartitionPolicies() {
		p, err := NewPartitioner(name)
		if err != nil {
			t.Fatal(err)
		}
		for _, n := range []int{0, 1, 2, 7, 511, 512, 513, 4000} {
			for _, k := range []int{1, 2, 3, 8, 64, 600} {
				shards := p.Assign(n, ClampShards(n, k), spanFootprint(2))
				validatePartition(n, shards, name)
				if len(shards) > ClampShards(n, k) {
					t.Errorf("%s n=%d k=%d: %d shards exceeds clamp", name, n, k, len(shards))
				}
			}
		}
	}
}

// TestContiguousMatchesPartition: the contiguous policy is the determinism
// baseline — byte-for-byte the historical Partition layout.
func TestContiguousMatchesPartition(t *testing.T) {
	p, _ := NewPartitioner("contiguous")
	for _, n := range []int{0, 1, 10, 513, 4000} {
		for _, k := range []int{1, 4, 64} {
			got := p.Assign(n, k, selfFootprint)
			if want := Partition(n, k); !reflect.DeepEqual(got, want) {
				t.Fatalf("contiguous(%d, %d) = %v, want %v", n, k, got, want)
			}
		}
	}
	if p.Refresh(5, 0.99) {
		t.Fatal("contiguous must never refresh")
	}
	if p.Boundary() != BoundarySequential {
		t.Fatal("contiguous must use the sequential boundary")
	}
}

// TestDegreeBalancedEqualizesWeight: with weights heavily skewed to one end,
// the degree-balanced cuts shift so per-shard weight is far more even than
// per-shard node count.
func TestDegreeBalancedEqualizesWeight(t *testing.T) {
	const n, k = 1000, 4
	// Last 100 nodes carry 100x the weight of the rest.
	fp := func(i int) Footprint {
		w := 1.0
		if i >= n-100 {
			w = 100
		}
		return Footprint{Lo: i, Hi: i, Weight: w}
	}
	p, _ := NewPartitioner("degree-balanced")
	shards := p.Assign(n, k, fp)
	validatePartition(n, shards, "degree-balanced")
	weight := func(s Shard) (w float64) {
		for i := s.Lo; i < s.Hi; i++ {
			w += fp(i).Weight
		}
		return w
	}
	total := weight(Shard{Lo: 0, Hi: n})
	for _, s := range shards {
		if share := weight(s) / total; share > 0.45 {
			t.Fatalf("shard %d carries %.0f%% of the weight: %+v", s.Index, 100*share, shards)
		}
	}
	if !p.Refresh(0, 0) || !p.Refresh(8, 0) || p.Refresh(3, 0.9) {
		t.Fatal("degree-balanced must refresh on its round cadence only")
	}
}

// TestLocalityAvoidsCrossings: footprints are local except around one hot
// span; the locality policy must place its cuts outside that span while the
// weight-balanced ideal cut would land inside it.
func TestLocalityAvoidsCrossings(t *testing.T) {
	const n, k = 1024, 2
	// Every node in [500, 524) spans that whole block, so any cut inside it
	// crosses ~24 footprints; cuts elsewhere cross at most 1.
	fp := func(i int) Footprint {
		if i >= 500 && i < 524 {
			return Footprint{Lo: 500, Hi: 523, Weight: 1}
		}
		return Footprint{Lo: i, Hi: i, Weight: 1}
	}
	p, _ := NewPartitioner("locality")
	shards := p.Assign(n, k, fp)
	validatePartition(n, shards, "locality")
	cut := shards[0].Hi
	if cut > 500 && cut < 524 {
		t.Fatalf("locality cut %d lands inside the hot span [500,524)", cut)
	}
	if p.Boundary() != BoundaryWaves {
		t.Fatal("locality must use the wave boundary discipline")
	}
	if p.Refresh(3, 0.1) || !p.Refresh(3, 0.3) {
		t.Fatal("locality must refresh exactly when crossShare > 0.25")
	}
}

// TestPoliciesDeterministic: Assign is a pure function — same inputs, same
// layout, across fresh policy instances.
func TestPoliciesDeterministic(t *testing.T) {
	for _, name := range PartitionPolicies() {
		a, _ := NewPartitioner(name)
		b, _ := NewPartitioner(name)
		fp := spanFootprint(3)
		if !reflect.DeepEqual(a.Assign(2000, 8, fp), b.Assign(2000, 8, fp)) {
			t.Fatalf("%s: Assign is not deterministic", name)
		}
	}
}
