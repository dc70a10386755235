package graph

import (
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
func Line(nodes []ids.ID) *Graph { return sortedPath(nodes, false) }

// Ring returns the sorted virtual ring over the given nodes: the line plus
// the wrap edge.
func Ring(nodes []ids.ID) *Graph { return sortedPath(nodes, true) }

// sortedPath joins the nodes in identifier order, and with wrap the two
// extremes of more than two.
func sortedPath(nodes []ids.ID, wrap bool) *Graph {
	sorted := slices.Clone(nodes)
	ids.SortAsc(sorted)
	ends := make([]int32, 0, 2*len(sorted)+2)
	for i := int32(1); i < int32(len(sorted)); i++ {
		ends = append(ends, i-1, i)
	}
	if wrap && len(sorted) > 2 {
		ends = append(ends, 0, int32(len(sorted)-1))
	}
	return build(sorted, ends).Graph()
}

// Star returns a star with the first node as hub.
func Star(nodes []ids.ID) *Graph {
	ends := make([]int32, 0, 2*len(nodes))
	for i := int32(1); i < int32(len(nodes)); i++ {
		ends = append(ends, 0, i)
	}
	return build(nodes, ends).Graph()
}

// Grid returns a rows×cols grid over the given nodes (len must be
// rows*cols), wiring 4-neighborhoods. It models the regular deployments
// used in sensor-network evaluations of SSR.
func Grid(nodes []ids.ID, rows, cols int) (*Graph, error) {
	if rows*cols != len(nodes) {
		return nil, fmt.Errorf("grid %dx%d needs %d nodes, got %d", rows, cols, rows*cols, len(nodes))
	}
	ends := make([]int32, 0, 4*len(nodes))
	for i := int32(0); i < int32(len(nodes)); i++ {
		if c := int(i) % cols; c+1 < cols {
			ends = append(ends, i, i+1)
		}
		if int(i)+cols < len(nodes) {
			ends = append(ends, i, i+int32(cols))
		}
	}
	return build(nodes, ends).Graph(), nil
}

// ErdosRenyi returns a G(n,p) random graph over the given nodes, then
// patches in random edges until connected (the paper assumes a connected
// physical graph throughout).
func ErdosRenyi(nodes []ids.ID, p float64, r *rand.Rand) *Graph {
	var ends []int32
	for i := int32(0); i < int32(len(nodes)); i++ {
		for j := i + 1; j < int32(len(nodes)); j++ {
			if r.Float64() < p {
				ends = append(ends, i, j)
			}
		}
	}
	return buildConnected(nodes, ends, r)
}

// buildConnected is build followed by the patch-up to a connected graph.
func buildConnected(nodes []ids.ID, ends []int32, r *rand.Rand) *Graph {
	c := build(nodes, ends)
	g := c.Graph()
	g.randomSpanningConnected(c, r)
	return g
}

// RandomRegular returns a connected random d-regular-ish graph over the
// given nodes using the pairing model with retries; imperfect pairings fall
// back to near-regular (degree d±1). Onus et al. evaluate linearization on
// regular random graphs; the round counts depend on the degree distribution,
// not exact regularity.
func RandomRegular(nodes []ids.ID, d int, r *rand.Rand) *Graph {
	n := len(nodes)
	if n < 2 || d < 1 {
		return NewWithNodes(nodes...)
	}
	if d >= n {
		d = n - 1
	}
	// Pairing model: d stubs (positions in nodes) per node, shuffle, pair
	// consecutive stubs, up to 10 times until the pairing is simple. The
	// last pairing stands, less its self-loops and duplicates; a handful of
	// lost stubs is fine.
	stubs := make([]int32, 0, n*d)
	for i := int32(0); i < int32(n); i++ {
		for k := 0; k < d; k++ {
			stubs = append(stubs, i)
		}
	}
	keys := make([]uint64, len(stubs)/2)
	for attempt := 0; attempt < 10; attempt++ {
		r.Shuffle(len(stubs), func(i, j int) { stubs[i], stubs[j] = stubs[j], stubs[i] })
		if simplePairing(stubs, keys) {
			break
		}
	}
	return buildConnected(nodes, stubs, r)
}

// simplePairing reports whether pairing consecutive stubs gives neither a
// self-loop nor a duplicate edge: it writes one key per pair, smaller
// position in the high half, into the scratch keys (len(stubs)/2 long) and
// sorts them, so a duplicate is a run.
func simplePairing(stubs []int32, keys []uint64) bool {
	for i := range keys {
		u, v := stubs[2*i], stubs[2*i+1]
		if u == v {
			return false
		}
		if u > v {
			u, v = v, u
		}
		keys[i] = uint64(u)<<32 | uint64(v)
	}
	slices.Sort(keys)
	return len(slices.Compact(keys)) == len(keys)
}

// PowerLaw returns a connected graph whose degree distribution follows a
// power law with the given exponent alpha, built with the configuration
// model: node i (in random order) gets degree proportional to a Pareto draw
// with tail exponent alpha, clamped to [1, n-1]. The paper quotes Onus et
// al.'s experiment on power-law graphs with alpha = 2.
func PowerLaw(nodes []ids.ID, alpha float64, r *rand.Rand) *Graph {
	return buildConnected(nodes, powerLawStubs(nodes, alpha, r), r)
}

// powerLawStubs is PowerLaw before the patch-up: the configuration-model
// pairing alone, as shuffled stubs (positions in nodes) whose consecutive
// pairs are the edges. At alpha = 2 it leaves hundreds of small components.
func powerLawStubs(nodes []ids.ID, alpha float64, r *rand.Rand) []int32 {
	n := len(nodes)
	if n < 2 {
		return nil
	}
	stubs := make([]int32, 0, 4*n)
	for i := int32(0); i < int32(n); i++ {
		// Inverse-transform sample of a zeta-like distribution:
		// P(deg >= k) ~ k^(1-alpha). Draw u uniform, deg = u^(-1/(alpha-1)).
		u := r.Float64()
		for u == 0 {
			u = r.Float64()
		}
		deg := min(max(int(math.Pow(u, -1/(alpha-1))), 1), n-1)
		for k := 0; k < deg; k++ {
			stubs = append(stubs, i)
		}
	}
	r.Shuffle(len(stubs), func(i, j int) { stubs[i], stubs[j] = stubs[j], stubs[i] })
	return stubs
}

// PreferentialAttachment returns a Barabási–Albert graph: each new node
// attaches to m existing nodes chosen proportionally to degree. This gives
// power-law graphs with exponent ~3 and is the standard alternative
// power-law generator for the E4 sweeps.
func PreferentialAttachment(nodes []ids.ID, m int, r *rand.Rand) *Graph {
	m = max(m, 1)
	// Repeated-targets list: each edge endpoint appears once, so sampling
	// uniformly from it is degree-proportional sampling. It holds positions
	// in nodes, all below the new node's, and takes the chosen targets in
	// the order they were drawn.
	targets := []int32{0}
	ends := make([]int32, 0, 2*m*len(nodes))
	chosen := make([]int32, 0, m)
	for v := int32(1); v < int32(len(nodes)); v++ {
		k := min(m, int(v))
		chosen = chosen[:0]
		for len(chosen) < k {
			if u := targets[r.Intn(len(targets))]; !slices.Contains(chosen, u) {
				chosen = append(chosen, u)
			}
		}
		for _, u := range chosen {
			ends = append(ends, v, u)
			targets = append(targets, u)
		}
		targets = append(targets, v)
	}
	return build(nodes, ends).Graph()
}

// UnitDisk places the given nodes uniformly at random on the unit square
// and links every pair within the given radio radius — the standard model
// for the wireless/ad-hoc networks SSR targets. The result is patched to be
// connected. Positions are returned for visualization and for physical-
// proximity-aware experiments.
func UnitDisk(nodes []ids.ID, radius float64, r *rand.Rand) (*Graph, map[ids.ID][2]float64) {
	xy := make([][2]float64, len(nodes))
	for i := range xy {
		xy[i] = [2]float64{r.Float64(), r.Float64()}
	}
	g := buildConnected(nodes, diskEnds(xy, radius), r)
	pos := make(map[ids.ID][2]float64, len(nodes))
	for i, v := range nodes {
		pos[v] = xy[i]
	}
	return g, pos
}

// diskEnds returns every pair of points within radius of each other. The
// points go into a side×side grid of cells whose edge is at least the
// radius (a hair more, so rounding cannot part a pair by two cells), so a
// pair lies in one cell or in two adjacent ones: each cell is paired with
// itself and its right, lower-left, lower and lower-right neighbours. A
// radius the cells cannot help with gets one cell, the all-pairs scan.
func diskEnds(xy [][2]float64, radius float64) []int32 {
	side := 1
	if radius > 0 && radius < 1 {
		side = max(1, min(int(1/(radius*(1+1e-9))), int(math.Sqrt(float64(len(xy))))))
	}
	cell := func(x float64) int { return min(int(x*float64(side)), side-1) }
	grid := make([][]int32, side*side)
	for i, p := range xy {
		c := cell(p[1])*side + cell(p[0])
		grid[c] = append(grid[c], int32(i))
	}
	rr := radius * radius
	var ends []int32
	for c, here := range grid {
		for k, i := range here {
			for _, d := range [][2]int{{0, 0}, {1, 0}, {-1, 1}, {0, 1}, {1, 1}} {
				x, y := c%side+d[0], c/side+d[1]
				if x < 0 || x >= side || y >= side {
					continue
				}
				there := grid[y*side+x]
				if d == [2]int{} {
					there = here[k+1:]
				}
				for _, j := range there {
					dx, dy := xy[i][0]-xy[j][0], xy[i][1]-xy[j][1]
					if dx*dx+dy*dy <= rr {
						ends = append(ends, i, j)
					}
				}
			}
		}
	}
	return ends
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
// runs reproducible. Every topology has n nodes except grid, the largest
// square that fits: ⌊√n⌋² nodes, the first ⌊√n⌋² identifiers drawn.
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
		side := int(math.Sqrt(float64(n)))
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
