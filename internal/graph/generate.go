package graph

import (
	"cmp"
	"fmt"
	"math"
	"math/rand"
	"slices"

	"repro/internal/ids"
)

// IDAssignment controls how node identifiers are drawn for generated
// topologies. SSR explicitly does not assume addresses to match topology
// (§1), so the default draws identifiers uniformly at random from the full
// 64-bit space; Sequential is convenient for small didactic examples like
// the paper's figures.
type IDAssignment int

const (
	// RandomIDs draws unique uniform random 64-bit identifiers.
	RandomIDs IDAssignment = iota
	// SequentialIDs assigns 1..n. Useful for readable traces.
	SequentialIDs
)

// MakeIDs returns n unique identifiers per the assignment policy.
func MakeIDs(n int, policy IDAssignment, r *rand.Rand) []ids.ID {
	out := make([]ids.ID, 0, n)
	switch policy {
	case SequentialIDs:
		for i := 1; i <= n; i++ {
			out = append(out, ids.ID(i))
		}
	default:
		seen := ids.NewSet()
		for len(out) < n {
			id := ids.ID(r.Uint64())
			if seen.Add(id) {
				out = append(out, id)
			}
		}
	}
	return out
}

// Line returns the sorted-line graph over the given nodes.
func Line(nodes []ids.ID) *Graph {
	sorted := append([]ids.ID(nil), nodes...)
	ids.SortAsc(sorted)
	g := NewWithNodes(sorted...)
	for i := 0; i+1 < len(sorted); i++ {
		g.AddEdge(sorted[i], sorted[i+1])
	}
	return g
}

// Ring returns the sorted virtual ring over the given nodes: the line plus
// the wrap edge.
func Ring(nodes []ids.ID) *Graph {
	g := Line(nodes)
	sorted := g.Nodes()
	if len(sorted) > 2 {
		g.AddEdge(sorted[0], sorted[len(sorted)-1])
	}
	return g
}

// Star returns a star with the first node as hub.
func Star(nodes []ids.ID) *Graph {
	g := NewWithNodes(nodes...)
	if len(nodes) == 0 {
		return g
	}
	hub := nodes[0]
	for _, v := range nodes[1:] {
		g.AddEdge(hub, v)
	}
	return g
}

// Grid returns a rows×cols grid over the given nodes (len must be
// rows*cols), wiring 4-neighborhoods. It models the regular deployments
// used in sensor-network evaluations of SSR.
func Grid(nodes []ids.ID, rows, cols int) (*Graph, error) {
	if rows*cols != len(nodes) {
		return nil, fmt.Errorf("grid %dx%d needs %d nodes, got %d", rows, cols, rows*cols, len(nodes))
	}
	g := NewWithNodes(nodes...)
	at := func(rw, c int) ids.ID { return nodes[rw*cols+c] }
	for rw := 0; rw < rows; rw++ {
		for c := 0; c < cols; c++ {
			if c+1 < cols {
				g.AddEdge(at(rw, c), at(rw, c+1))
			}
			if rw+1 < rows {
				g.AddEdge(at(rw, c), at(rw+1, c))
			}
		}
	}
	return g, nil
}

// ErdosRenyi returns a G(n,p) random graph over the given nodes, then
// patches in random edges until connected (the paper assumes a connected
// physical graph throughout).
func ErdosRenyi(nodes []ids.ID, p float64, r *rand.Rand) *Graph {
	g := NewWithNodes(nodes...)
	for i := 0; i < len(nodes); i++ {
		for j := i + 1; j < len(nodes); j++ {
			if r.Float64() < p {
				g.AddEdge(nodes[i], nodes[j])
			}
		}
	}
	g.RandomSpanningConnected(r)
	return g
}

// RandomRegular returns a connected random d-regular-ish graph over the
// given nodes using the pairing model with retries; imperfect pairings fall
// back to near-regular (degree d±1). Onus et al. evaluate linearization on
// regular random graphs; the round counts depend on the degree distribution,
// not exact regularity.
func RandomRegular(nodes []ids.ID, d int, r *rand.Rand) *Graph {
	n := len(nodes)
	g := NewWithNodes(nodes...)
	if n < 2 || d < 1 {
		return g
	}
	if d >= n {
		d = n - 1
	}
	// Pairing model: d stubs per node, shuffle, pair consecutive stubs, up
	// to 10 times until the pairing is simple. The last pairing stands, less
	// its self-loops and duplicates; a handful of lost stubs is fine.
	stubs := make([]ids.ID, 0, n*d)
	for _, v := range nodes {
		for k := 0; k < d; k++ {
			stubs = append(stubs, v)
		}
	}
	pairs := make([]Edge, len(stubs)/2)
	for attempt := 0; attempt < 10; attempt++ {
		r.Shuffle(len(stubs), func(i, j int) { stubs[i], stubs[j] = stubs[j], stubs[i] })
		if simplePairing(stubs, pairs) {
			break
		}
	}
	for i := 0; i+1 < len(stubs); i += 2 {
		g.AddEdge(stubs[i], stubs[i+1]) // self-loops and duplicates collapse
	}
	g.RandomSpanningConnected(r)
	return g
}

// simplePairing reports whether pairing consecutive stubs gives neither a
// self-loop nor a duplicate edge: it writes the pairs into the scratch
// pairs (len(stubs)/2 long), sorts them and compares neighbours.
func simplePairing(stubs []ids.ID, pairs []Edge) bool {
	for i := range pairs {
		u, v := stubs[2*i], stubs[2*i+1]
		if u == v {
			return false
		}
		pairs[i] = NewEdge(u, v)
	}
	slices.SortFunc(pairs, func(a, b Edge) int { return cmp.Or(cmp.Compare(a.U, b.U), cmp.Compare(a.V, b.V)) })
	for i := 1; i < len(pairs); i++ {
		if pairs[i] == pairs[i-1] {
			return false
		}
	}
	return true
}

// PowerLaw returns a connected graph whose degree distribution follows a
// power law with the given exponent alpha, built with the configuration
// model: node i (in random order) gets degree proportional to a Pareto draw
// with tail exponent alpha, clamped to [1, n-1]. The paper quotes Onus et
// al.'s experiment on power-law graphs with alpha = 2.
func PowerLaw(nodes []ids.ID, alpha float64, r *rand.Rand) *Graph {
	g := powerLawPairing(nodes, alpha, r)
	g.RandomSpanningConnected(r)
	return g
}

// powerLawPairing is PowerLaw before the patch-up: the configuration-model
// pairing alone, which at alpha = 2 leaves hundreds of small components.
func powerLawPairing(nodes []ids.ID, alpha float64, r *rand.Rand) *Graph {
	n := len(nodes)
	g := NewWithNodes(nodes...)
	if n < 2 {
		return g
	}
	stubs := make([]ids.ID, 0, 4*n)
	for _, v := range nodes {
		// Inverse-transform sample of a zeta-like distribution:
		// P(deg >= k) ~ k^(1-alpha). Draw u uniform, deg = u^(-1/(alpha-1)).
		u := r.Float64()
		for u == 0 {
			u = r.Float64()
		}
		deg := int(math.Pow(u, -1/(alpha-1)))
		if deg < 1 {
			deg = 1
		}
		if deg > n-1 {
			deg = n - 1
		}
		for k := 0; k < deg; k++ {
			stubs = append(stubs, v)
		}
	}
	r.Shuffle(len(stubs), func(i, j int) { stubs[i], stubs[j] = stubs[j], stubs[i] })
	for i := 0; i+1 < len(stubs); i += 2 {
		g.AddEdge(stubs[i], stubs[i+1]) // self-loops/duplicates collapse
	}
	return g
}

// PreferentialAttachment returns a Barabási–Albert graph: each new node
// attaches to m existing nodes chosen proportionally to degree. This gives
// power-law graphs with exponent ~3 and is the standard alternative
// power-law generator for the E4 sweeps.
func PreferentialAttachment(nodes []ids.ID, m int, r *rand.Rand) *Graph {
	n := len(nodes)
	g := NewWithNodes(nodes...)
	if n < 2 {
		return g
	}
	if m < 1 {
		m = 1
	}
	// Repeated-targets list: each edge endpoint appears once, so sampling
	// uniformly from it is degree-proportional sampling.
	targets := []ids.ID{nodes[0]}
	for i := 1; i < n; i++ {
		v := nodes[i]
		k := m
		if k > i {
			k = i
		}
		chosen := ids.NewSet()
		for chosen.Len() < k {
			u := targets[r.Intn(len(targets))]
			if u != v {
				chosen.Add(u)
			}
		}
		for u := range chosen {
			g.AddEdge(v, u)
			targets = append(targets, u)
		}
		targets = append(targets, v)
	}
	return g
}

// UnitDisk places the given nodes uniformly at random on the unit square
// and links every pair within the given radio radius — the standard model
// for the wireless/ad-hoc networks SSR targets. The result is patched to be
// connected. Positions are returned for visualization and for physical-
// proximity-aware experiments.
func UnitDisk(nodes []ids.ID, radius float64, r *rand.Rand) (*Graph, map[ids.ID][2]float64) {
	g := NewWithNodes(nodes...)
	pos := make(map[ids.ID][2]float64, len(nodes))
	for _, v := range nodes {
		pos[v] = [2]float64{r.Float64(), r.Float64()}
	}
	rr := radius * radius
	for i := 0; i < len(nodes); i++ {
		for j := i + 1; j < len(nodes); j++ {
			a, b := pos[nodes[i]], pos[nodes[j]]
			dx, dy := a[0]-b[0], a[1]-b[1]
			if dx*dx+dy*dy <= rr {
				g.AddEdge(nodes[i], nodes[j])
			}
		}
	}
	g.RandomSpanningConnected(r)
	return g, pos
}

// Topology names a generator for the CLI tools and sweep harnesses.
type Topology string

// Topologies selectable in experiments.
const (
	TopoLine     Topology = "line"
	TopoRing     Topology = "ring"
	TopoStar     Topology = "star"
	TopoGrid     Topology = "grid"
	TopoER       Topology = "er"
	TopoRegular  Topology = "regular"
	TopoPowerLaw Topology = "powerlaw"
	TopoBarabasi Topology = "barabasi"
	TopoUnitDisk Topology = "unitdisk"
)

// Generate builds the named topology over n nodes with sensible default
// parameters for the experiment sweeps. The identifier policy and seed make
// runs reproducible.
func Generate(topo Topology, n int, policy IDAssignment, seed int64) (*Graph, error) {
	r := rand.New(rand.NewSource(seed))
	nodes := MakeIDs(n, policy, r)
	switch topo {
	case TopoLine:
		return Line(nodes), nil
	case TopoRing:
		return Ring(nodes), nil
	case TopoStar:
		return Star(nodes), nil
	case TopoGrid:
		side := int(math.Round(math.Sqrt(float64(n))))
		if side < 1 {
			side = 1
		}
		return Grid(nodes[:side*side], side, side)
	case TopoER:
		p := 2 * math.Log(float64(n)+1) / float64(n) // comfortably above the connectivity threshold
		if p > 1 {
			p = 1
		}
		return ErdosRenyi(nodes, p, r), nil
	case TopoRegular:
		return RandomRegular(nodes, 4, r), nil
	case TopoPowerLaw:
		return PowerLaw(nodes, 2.0, r), nil
	case TopoBarabasi:
		return PreferentialAttachment(nodes, 2, r), nil
	case TopoUnitDisk:
		radius := 1.8 * math.Sqrt(math.Log(float64(n)+1)/(math.Pi*float64(n)))
		g, _ := UnitDisk(nodes, radius, r)
		return g, nil
	default:
		return nil, fmt.Errorf("unknown topology %q", topo)
	}
}

// AllTopologies lists every selectable topology, for sweeps and CLIs.
func AllTopologies() []Topology {
	return []Topology{
		TopoLine, TopoRing, TopoStar, TopoGrid, TopoER,
		TopoRegular, TopoPowerLaw, TopoBarabasi, TopoUnitDisk,
	}
}
