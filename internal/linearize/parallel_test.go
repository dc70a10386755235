package linearize

// Seed-for-seed equivalence suite for the round executor. The determinism
// contract has three layers, each pinned by a test:
//
//  1. For any fixed shard partition, the outcome is identical for every
//     worker count — including stats and the full trace stream — and a
//     zero Config is the default partition at any worker count.
//  2. The executor agrees with referenceRun, the single-threaded model on
//     graph.Graph that the repository used to run ("legacy" below): Memory
//     (Jacobi) bit for bit at every shard count, Pure/LSN and the daemon on
//     their one-shard schedule, and Pure/LSN on several shards by replay —
//     the reference applies its step in the order the run under test
//     activated its nodes.
//  3. The worker pool is race-free (hammer test, effective under -race).

import (
	"fmt"
	"math/rand"
	"reflect"
	"slices"
	"testing"

	"repro/internal/graph"
	"repro/internal/ids"
	"repro/internal/sim"
	"repro/internal/trace"
)

// captureTracer records every event for stream comparison.
type captureTracer struct{ events []trace.Event }

func (c *captureTracer) Emit(e trace.Event) { c.events = append(c.events, e) }

// sansShardEvents drops the executor-accounting events, leaving the
// protocol-level stream the reference model produces.
func sansShardEvents(evs []trace.Event) []trace.Event {
	out := make([]trace.Event, 0, len(evs))
	for _, e := range evs {
		if e.Type == trace.EvShardRound {
			continue
		}
		if e.Type == trace.EvGauge && len(e.Kind) >= 9 && e.Kind[:9] == "parallel/" {
			continue
		}
		out = append(out, e)
	}
	return out
}

func sameEvents(t testing.TB, label string, a, b []trace.Event) {
	t.Helper()
	if len(a) != len(b) {
		t.Fatalf("%s: event counts differ: %d vs %d", label, len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("%s: event %d differs:\n  %s\n  %s", label, i, a[i], b[i])
		}
	}
}

// sameStats compares run statistics ignoring the executor-shape field.
func sameStats(t testing.TB, label string, a, b Stats) {
	t.Helper()
	a.Par, b.Par = ParallelStats{}, ParallelStats{}
	if a != b {
		t.Fatalf("%s: stats differ:\n  %s\n  %s", label, a, b)
	}
}

func runOnce(g *graph.Graph, cfg Config) (Stats, *graph.Graph, []trace.Event) {
	res := runEngine(g, cfg)
	return res.stats, res.final, res.events
}

// runResult is everything a run shows: stats, final graph, trace stream and
// the graph after every round — and, for a run of the engine, the engine.
type runResult struct {
	stats  Stats
	final  *graph.Graph
	events []trace.Event
	rounds []*graph.Graph
	engine *Engine
}

// runEngine runs the engine with a capturing tracer.
func runEngine(g *graph.Graph, cfg Config) runResult {
	cap := &captureTracer{}
	cfg.Tracer = cap
	e := NewEngine(g, cfg)
	st := e.Run()
	return runResult{stats: st, final: e.Graph(), events: cap.events, engine: e}
}

// runRounds is runEngine with the OnRound hook set, so the engine builds its
// graph every round and the result holds a copy of each.
func runRounds(g *graph.Graph, cfg Config) runResult {
	var rounds []*graph.Graph
	cfg.OnRound = func(_ int, cur *graph.Graph) { rounds = append(rounds, cur.Clone()) }
	res := runEngine(g, cfg)
	res.rounds = rounds
	return res
}

// sameRun holds a run of the engine to the reference's: stats, final graph,
// the protocol-level trace stream and the graph OnRound saw in every round.
func sameRun(t testing.TB, label string, got, want runResult) {
	t.Helper()
	sameStats(t, label, got.stats, want.stats)
	sameEvents(t, label, want.events, sansShardEvents(got.events))
	if !got.final.Equal(want.final) {
		t.Fatalf("%s: final graph differs from the reference", label)
	}
	if len(got.rounds) != len(want.rounds) {
		t.Fatalf("%s: OnRound saw %d rounds, the reference ran %d", label, len(got.rounds), len(want.rounds))
	}
	for r := range want.rounds {
		if !got.rounds[r].Equal(want.rounds[r]) {
			t.Fatalf("%s: graph after round %d differs from the reference", label, r)
		}
	}
}

// refModel is the engine as it was before its state became dense rows, kept
// as the model the dense step is held to: the virtual graph is a
// graph.Graph, and one activation sorts N(v), AddEdges the chain and
// RemoveEdges what the variant does not keep, one identifier at a time. The
// wrap edge is ring state beside g, as in the engine.
type refModel struct {
	cfg    Config
	g      *graph.Graph // line edges only
	closed bool
	nodes  []ids.ID
	stats  Stats
	round  int
	events []trace.Event
}

func (m *refModel) emit(ev trace.Event) {
	ev.T = int64(m.round)
	m.events = append(m.events, ev)
}

// ends returns the smallest and the largest identifier.
func (m *refModel) ends() (lo, hi ids.ID) { return m.nodes[0], m.nodes[len(m.nodes)-1] }

// view is what an observer sees: g, plus the wrap edge once the ring is
// closed.
func (m *refModel) view() *graph.Graph {
	g := m.g.Clone()
	if m.closed {
		g.AddEdge(m.ends())
	}
	return g
}

// numEdges is view().NumEdges() without the copy.
func (m *refModel) numEdges() int {
	if m.closed && !m.g.HasEdge(m.ends()) {
		return m.g.NumEdges() + 1
	}
	return m.g.NumEdges()
}

// closeRing is §4's discovery messages, abstracted: between rounds, once the
// line is in place, the extremal nodes establish the wrap edge.
func (m *refModel) closeRing() {
	if !m.cfg.CloseRing || len(m.nodes) < 3 || m.closed || !m.g.SupersetOfLine() {
		return
	}
	m.closed = true
	m.stats.EdgesAdded++
	lo, hi := m.ends()
	m.emit(trace.Event{Type: trace.EvRingClosed, Node: lo, Peer: hi})
}

func (m *refModel) done() bool {
	n := len(m.nodes)
	lineEdges := max(n-1, 0)
	if m.cfg.CloseRing && n >= 3 {
		if !m.closed {
			return false
		}
		lineEdges = n
	}
	if m.cfg.Variant == Pure && m.numEdges() != lineEdges {
		return false
	}
	return m.g.SupersetOfLine()
}

// added accounts for one edge AddEdge accepted and folds the degrees of its
// endpoints into the peak.
func (m *refModel) added(u, v ids.ID) {
	m.stats.EdgesAdded++
	m.stats.PeakDegree = max(m.stats.PeakDegree, m.g.Degree(u), m.g.Degree(v))
	m.emit(trace.Event{Type: trace.EvEdgeAdd, Node: u, Peer: v})
}

// step atomically applies v's operation: add the chain edges, then delegate
// away the neighbors outside v's keep set.
func (m *refModel) step(v ids.ID) {
	nbrs := slices.Clone(m.g.Neighbors(v)) // the removals below edit v's row
	for _, c := range chainEdges(v, nbrs) {
		if m.g.AddEdge(c.U, c.V) {
			m.added(c.U, c.V)
		}
	}
	if m.cfg.Variant != Memory {
		keep := m.keepFor(v, nbrs)
		m.emit(trace.Event{Type: trace.EvNodeActivate, Node: v, Aux: m.cfg.Variant.String(), Value: float64(len(keep))})
		sortIDs(keep)
		for _, w := range nbrs {
			if !containsID(keep, w) && m.g.RemoveEdge(v, w) {
				m.stats.EdgesDropped++
				m.emit(trace.Event{Type: trace.EvEdgeDelegate, Node: v, Peer: w})
			}
		}
	}
}

// keepFor returns the neighbors v retains under the configured variant:
// Pure keeps only the closest neighbor per side (Algorithm 1); LSN the
// closest neighbor within each occupied exponential interval per side.
// nbrs is v's current sorted neighborhood.
func (m *refModel) keepFor(v ids.ID, nbrs []ids.ID) []ids.ID {
	if m.cfg.Variant != Pure {
		return m.keepSet(v)
	}
	var keep []ids.ID
	for i := len(nbrs) - 1; i >= 0; i-- {
		if nbrs[i] < v {
			keep = append(keep, nbrs[i])
			break
		}
	}
	for _, u := range nbrs {
		if u > v {
			keep = append(keep, u)
			break
		}
	}
	return keep
}

// keepSet returns the neighbors of v that v's LSN policy retains: per
// direction, the closest neighbor within each occupied exponential interval
// (which automatically includes the overall closest neighbor on each side).
func (m *refModel) keepSet(v ids.ID) []ids.ID {
	var best [2][ids.NumIntervals]ids.ID
	var has [2][ids.NumIntervals]bool
	var out []ids.ID
	for _, u := range m.g.Neighbors(v) {
		d := 0
		if ids.DirOf(v, u) == ids.Right {
			d = 1
		}
		k := ids.IntervalIndex(ids.LineDist(v, u))
		if k < 0 {
			continue
		}
		if !has[d][k] {
			best[d][k] = u
			has[d][k] = true
			continue
		}
		inc := best[d][k]
		dU, dInc := ids.LineDist(v, u), ids.LineDist(v, inc)
		if dU < dInc || (dU == dInc && u < inc) {
			best[d][k] = u
		}
	}
	for d := 0; d < 2; d++ {
		for k := 0; k < ids.NumIntervals; k++ {
			if has[d][k] {
				out = append(out, best[d][k])
			}
		}
	}
	return out
}

// chainEdges returns the chain through v's sorted neighborhood: with
// u_1 < … < u_k < v < u_{k+1} < … < u_n the edges {u_1,u_2}, …, {u_k,v},
// {v,u_{k+1}}, …, {u_{n-1},u_n} (Algorithm 1). An empty neighborhood
// contributes nothing; a neighborhood entirely on one side still chains v
// to its closest member.
func chainEdges(v ids.ID, sortedNbrs []ids.ID) []graph.Edge {
	if len(sortedNbrs) == 0 {
		return nil
	}
	var out []graph.Edge
	prev := v
	placed := false
	first := true
	for _, u := range sortedNbrs {
		if !placed && v < u {
			if !first {
				out = append(out, graph.NewEdge(prev, v))
			}
			prev, first, placed = v, false, true
		}
		if !first {
			out = append(out, graph.NewEdge(prev, u))
		}
		prev, first = u, false
	}
	if !placed {
		out = append(out, graph.NewEdge(prev, v))
	}
	return out
}

// sortIDs sorts a small identifier slice in place by insertion sort.
func sortIDs(a []ids.ID) {
	for i := 1; i < len(a); i++ {
		for j := i; j > 0 && a[j] < a[j-1]; j-- {
			a[j], a[j-1] = a[j-1], a[j]
		}
	}
}

// containsID reports whether x occurs in the ascending slice sorted.
func containsID(sorted []ids.ID, x ids.ID) bool {
	_, found := slices.BinarySearch(sorted, x)
	return found
}

// jacobiRound is Memory's synchronous round: every node reads the
// round-start graph (a clone) while it adds its chain edges to the live one.
func (m *refModel) jacobiRound() {
	start := m.g.Clone()
	for _, v := range m.nodes {
		for _, c := range chainEdges(v, start.Neighbors(v)) {
			if m.g.AddEdge(c.U, c.V) {
				m.added(c.U, c.V)
			}
		}
	}
}

// referenceRun is the small model the executor is held to: one goroutine,
// no shards, refModel's step. With a nil order it runs the one-shard
// schedule — nodes in ascending identifier order, or under the daemon the
// seeded permutation TestRandomSequentialDrawSequence pins — and a Memory
// round under the synchronous scheduler is jacobiRound. A non-nil order is
// a replay: round r activates order[r], which must name every node once.
// The ring closes between rounds: before the first and at the end of each.
func referenceRun(t testing.TB, g *graph.Graph, cfg Config, order [][]ids.ID) runResult {
	t.Helper()
	m := &refModel{cfg: cfg, g: g.Clone(), nodes: g.Nodes()}
	m.stats = Stats{Variant: cfg.Variant, Scheduler: cfg.Scheduler, PeakDegree: g.MaxDegree()}
	maxRounds := cfg.MaxRounds
	if maxRounds <= 0 {
		maxRounds = max(16*len(m.nodes), 1024)
	}
	var rng *rand.Rand // the daemon's; seeding one is the dearest step of a small run
	if cfg.Scheduler == sim.RandomSequential {
		rng = rand.New(rand.NewSource(cfg.Seed))
	}
	var rounds []*graph.Graph
	m.closeRing()
	for ; !m.done() && m.round < maxRounds; m.round++ {
		round := trace.Event{Type: trace.EvRoundStart, Aux: cfg.Variant.String(), Value: float64(m.numEdges())}
		m.emit(round)
		acts := m.nodes
		switch {
		case order != nil:
			if m.round >= len(order) {
				t.Fatalf("the reference is not done after %d rounds, the run under test stopped there", m.round)
			}
			acts = order[m.round]
			sorted := slices.Clone(acts)
			slices.Sort(sorted)
			if !slices.Equal(sorted, m.nodes) {
				t.Fatalf("round %d activated %d nodes, not every node once", m.round, len(acts))
			}
		case cfg.Scheduler == sim.RandomSequential:
			acts = slices.Clone(m.nodes)
			rng.Shuffle(len(acts), func(i, j int) { acts[i], acts[j] = acts[j], acts[i] })
		}
		if cfg.Variant == Memory && cfg.Scheduler == sim.Synchronous {
			m.jacobiRound()
		} else {
			for _, v := range acts {
				m.step(v)
			}
		}
		m.closeRing()
		round.Type, round.Value = trace.EvRoundEnd, float64(m.numEdges())
		m.emit(round)
		m.stats.Rounds = m.round + 1
		rounds = append(rounds, m.view())
	}
	m.stats.Converged = m.done()
	m.stats.FinalEdges = m.numEdges()
	return runResult{stats: m.stats, final: m.view(), events: m.events, rounds: rounds}
}

// activationOrder reads the schedule off a Pure or LSN trace: per round,
// the nodes in the order of their EvNodeActivate events.
func activationOrder(evs []trace.Event) [][]ids.ID {
	var order [][]ids.ID
	for _, e := range evs {
		switch e.Type {
		case trace.EvRoundStart:
			order = append(order, nil)
		case trace.EvNodeActivate:
			order[len(order)-1] = append(order[len(order)-1], e.Node)
		}
	}
	return order
}

// sameAsReplay holds a Pure or LSN run on any shard layout to the
// reference: the reference step, applied in the run's own activation order,
// must produce the same per-activation events, the same graph after every
// round and the same stats.
func sameAsReplay(t testing.TB, label string, g *graph.Graph, cfg Config, got runResult) {
	t.Helper()
	sameRun(t, label, got, referenceRun(t, g, cfg, activationOrder(got.events)))
}

// TestParallelIndependentOfWorkers pins layer 1: with the shard partition
// held fixed, every worker count produces the same final graph, the same
// stats and the same trace stream (shard accounting included).
func TestParallelIndependentOfWorkers(t *testing.T) {
	g := randomConnected(400, 7)
	for _, v := range Variants() {
		for _, closeRing := range []bool{false, true} {
			base := Config{Variant: v, Scheduler: sim.Synchronous, CloseRing: closeRing,
				Executor: sim.ExecutorConfig{Workers: 1, Shards: 8}}
			refStats, refGraph, refEvents := runOnce(g, base)
			for _, workers := range []int{2, 4, 8} {
				cfg := base
				cfg.Executor.Workers = workers
				st, fg, evs := runOnce(g, cfg)
				label := v.String()
				if closeRing {
					label += "/ring"
				}
				if !fg.Equal(refGraph) {
					t.Fatalf("%s workers=%d: final graph differs from workers=1", label, workers)
				}
				sameStats(t, label, st, refStats)
				sameEvents(t, label, refEvents, evs)
			}
		}
	}
}

// TestZeroConfigIsDefaultExecutor pins the other half of layer 1: zero has
// no meaning of its own. At n=1500 the default partition has two shards,
// and a zero Config takes exactly the run of every explicit worker count —
// graph, stats and the full trace stream. Rounds are capped: equivalence
// holds round for round, convergence is not needed.
func TestZeroConfigIsDefaultExecutor(t *testing.T) {
	r := rand.New(rand.NewSource(19))
	g := graph.RandomRegular(graph.MakeIDs(1500, graph.RandomIDs, r), 4, r)
	for _, v := range Variants() {
		for _, closeRing := range []bool{false, true} {
			zero := Config{Variant: v, CloseRing: closeRing, MaxRounds: 24}
			zStats, zGraph, zEvents := runOnce(g, zero)
			if zStats.Par.Shards != 2 || zStats.Par.Policy != "contiguous" {
				t.Fatalf("%s: zero Config ran %+v, want 2 contiguous shards", v, zStats.Par)
			}
			for _, workers := range []int{1, 2, 4} {
				cfg := zero
				cfg.Executor.Workers = workers
				st, fg, evs := runOnce(g, cfg)
				label := fmt.Sprintf("%s ring=%v workers=%d", v, closeRing, workers)
				if !fg.Equal(zGraph) {
					t.Fatalf("%s: final graph differs from the zero Config", label)
				}
				sameStats(t, label, st, zStats)
				sameEvents(t, label, zEvents, evs)
			}
		}
	}
}

// TestJacobiShardedMatchesLegacy pins layer 2 for Memory: the Jacobi
// executor reproduces the reference model bit for bit — graph, stats and
// protocol-level event stream — for every shard count.
func TestJacobiShardedMatchesLegacy(t *testing.T) {
	for _, seed := range []int64{3, 11} {
		g := randomConnected(300, seed)
		for _, closeRing := range []bool{false, true} {
			legacy := Config{Variant: Memory, Scheduler: sim.Synchronous, CloseRing: closeRing}
			ref := referenceRun(t, g, legacy, nil)
			if !ref.stats.Converged {
				t.Fatalf("legacy memory run did not converge")
			}
			for _, shards := range []int{1, 3, 8, 64} {
				cfg := legacy
				cfg.Executor = sim.ExecutorConfig{Workers: 4, Shards: shards}
				sameRun(t, fmt.Sprintf("memory ring=%v shards=%d", closeRing, shards), runRounds(g, cfg), ref)
			}
		}
	}
}

// TestAtomicShardOneMatchesLegacy pins layer 2 for Pure and LSN: a single
// shard degenerates to exactly the reference Gauss-Seidel schedule — stats,
// trace stream, final graph and the graph OnRound sees in every round.
func TestAtomicShardOneMatchesLegacy(t *testing.T) {
	for _, v := range []Variant{Pure, LSN} {
		g := randomConnected(200, 17)
		for _, closeRing := range []bool{false, true} {
			cfg := Config{Variant: v, Scheduler: sim.Synchronous, CloseRing: closeRing,
				Executor: sim.ExecutorConfig{Workers: 4, Shards: 1}}
			sameRun(t, fmt.Sprintf("%s ring=%v", v, closeRing), runRounds(g, cfg), referenceRun(t, g, cfg, nil))
		}
	}
}

// TestDaemonMatchesLegacy pins layer 2 for the sequential daemon, under
// which every variant steps in place: the reference, walking the seeded
// permutation, takes the same run.
func TestDaemonMatchesLegacy(t *testing.T) {
	g := randomConnected(120, 5)
	for _, v := range Variants() {
		for _, closeRing := range []bool{false, true} {
			cfg := Config{Variant: v, Scheduler: sim.RandomSequential, Seed: 9, CloseRing: closeRing}
			sameRun(t, fmt.Sprintf("%s ring=%v", v, closeRing), runRounds(g, cfg), referenceRun(t, g, cfg, nil))
		}
	}
}

// TestShardedMatchesLegacyReplay pins layer 2 where the shard layout is part
// of the schedule: Pure and LSN on several shards, under every partition
// policy, with and without ring closure. The reference replays the
// activation order of the one-worker run, and every worker count must take
// that same run. At n=1100 the default partition has two shards.
func TestShardedMatchesLegacyReplay(t *testing.T) {
	g, err := graph.Generate(graph.TopoPowerLaw, 1100, graph.RandomIDs, 3)
	if err != nil {
		t.Fatal(err)
	}
	for _, v := range []Variant{Pure, LSN} {
		for _, closeRing := range []bool{false, true} {
			for _, shards := range []int{3, 8, 0} {
				for _, policy := range sim.PartitionPolicies() {
					cfg := Config{Variant: v, CloseRing: closeRing, MaxRounds: 12,
						Executor: sim.ExecutorConfig{Shards: shards, Partition: policy}}
					var ref runResult
					for _, workers := range []int{1, 2, 4} {
						label := fmt.Sprintf("%s ring=%v shards=%d %s workers=%d", v, closeRing, shards, policy, workers)
						cfg.Executor.Workers = workers
						got := runRounds(g, cfg)
						if workers == 1 {
							ref = referenceRun(t, g, cfg, activationOrder(got.events))
							if want := max(shards, 2); got.stats.Par.Shards != want {
								t.Fatalf("%s: ran on %d shards, want %d", label, got.stats.Par.Shards, want)
							}
						}
						sameRun(t, label, got, ref)
					}
				}
			}
		}
	}
}

// TestParallelConvergesAllVariants checks that the multi-shard schedule
// still reaches the variant's goal state and preserves the line invariant.
func TestParallelConvergesAllVariants(t *testing.T) {
	for _, v := range Variants() {
		for _, closeRing := range []bool{false, true} {
			g := randomConnected(250, 23)
			cfg := Config{Variant: v, Scheduler: sim.Synchronous, CloseRing: closeRing,
				Executor: sim.ExecutorConfig{Workers: 4, Shards: 6}}
			st, fg, _ := runOnce(g, cfg)
			if !st.Converged {
				t.Fatalf("%s close=%v: did not converge: %s", v, closeRing, st)
			}
			if !fg.SupersetOfLine() {
				t.Fatalf("%s close=%v: final graph misses line edges", v, closeRing)
			}
			if closeRing && !fg.HasEdge(fg.Nodes()[0], fg.Nodes()[fg.NumNodes()-1]) {
				t.Fatalf("%s: wrap edge missing", v)
			}
			if v == Pure && closeRing && !fg.IsSortedRing() {
				t.Fatalf("pure/ring must end on the sorted ring")
			}
			if st.Par.Workers == 0 || st.Par.Shards != 6 {
				t.Fatalf("%s: executor shape not recorded: %+v", v, st.Par)
			}
		}
	}
}

// TestParallelSequentialDaemonFallsBack: the random-sequential daemon is
// inherently serial — always one shard, whatever Executor asks for — so
// neither Workers nor Shards nor the policy may change its run.
func TestParallelSequentialDaemonFallsBack(t *testing.T) {
	g := randomConnected(120, 5)
	ref := Config{Variant: LSN, Scheduler: sim.RandomSequential, Seed: 9}
	rStats, rGraph, rEvents := runOnce(g, ref)
	cfg := ref
	cfg.Executor = sim.ExecutorConfig{Workers: 8, Shards: 8, Partition: "locality"}
	st, fg, evs := runOnce(g, cfg)
	if !fg.Equal(rGraph) {
		t.Fatal("sequential daemon result changed under Executor")
	}
	if st.Par.Shards != 1 || st.Par.Workers != 1 || st.Par.BoundaryActivations+st.Par.WaveActivations != 0 {
		t.Fatalf("sequential daemon must run as one shard: %+v", st.Par)
	}
	sameStats(t, "daemon", st, rStats)
	sameEvents(t, "daemon", sansShardEvents(rEvents), sansShardEvents(evs))
}

// TestRandomSequentialDrawSequence pins the daemon's activation order: each
// round walks a fresh identity order permuted by one rng.Shuffle from
// rand.NewSource(Seed) — the draw sequence every committed
// random-sequential artifact was produced with.
func TestRandomSequentialDrawSequence(t *testing.T) {
	g := randomConnected(80, 31)
	st, _, evs := runOnce(g, Config{Variant: Pure, Scheduler: sim.RandomSequential, Seed: 9})
	nodes := g.Nodes()
	rng := rand.New(rand.NewSource(9))
	var want []ids.ID
	for r := 0; r < st.Rounds; r++ {
		order := append([]ids.ID(nil), nodes...)
		rng.Shuffle(len(order), func(i, j int) { order[i], order[j] = order[j], order[i] })
		want = append(want, order...)
	}
	var got []ids.ID
	for _, e := range evs {
		if e.Type == trace.EvNodeActivate {
			got = append(got, e.Node)
		}
	}
	if !st.Converged || st.Rounds < 2 || !reflect.DeepEqual(got, want) {
		t.Fatalf("activation order drifted from the seeded permutation (%s)", st)
	}
}

// TestParallelEquivalence10k is the acceptance-criteria check at n=10_000:
// one-worker and four-worker runs of the executor produce
// bit-identical virtual graphs on all three variants. Rounds are capped —
// equivalence must hold round for round, convergence is not required here.
func TestParallelEquivalence10k(t *testing.T) {
	if testing.Short() {
		t.Skip("10k-node equivalence sweep skipped in -short mode")
	}
	r := rand.New(rand.NewSource(77))
	nodes := graph.MakeIDs(10_000, graph.RandomIDs, r)
	g := graph.RandomRegular(nodes, 4, r)
	for _, v := range Variants() {
		cfg := Config{Variant: v, Scheduler: sim.Synchronous, CloseRing: true,
			MaxRounds: 12, Executor: sim.ExecutorConfig{Workers: 1}}
		seqStats, seqGraph, _ := runOnce(g, cfg)
		cfg.Executor.Workers = 4
		parStats, parGraph, _ := runOnce(g, cfg)
		if !parGraph.Equal(seqGraph) {
			t.Fatalf("%s: 10k-node parallel run diverged from sequential", v)
		}
		sameStats(t, v.String(), parStats, seqStats)
	}
}

// TestParallelRaceHammer drives the worker pool hard on all variants; its
// value is under `go test -race` (the Makefile race target repeats it ten
// times), where any violation of the shard-confinement discipline — one
// writer per index interval of Engine.rows — becomes a report. Each final
// graph must also be the one-worker run's.
func TestParallelRaceHammer(t *testing.T) {
	r := rand.New(rand.NewSource(41))
	nodes := graph.MakeIDs(1200, graph.RandomIDs, r)
	g := graph.ErdosRenyi(nodes, 0.02, r)
	for _, v := range Variants() {
		for _, shards := range []int{4, 16} {
			cfg := Config{Variant: v, Scheduler: sim.Synchronous, CloseRing: true,
				Executor: sim.ExecutorConfig{Workers: 8, Shards: shards}, MaxRounds: 20}
			st, fg := Run(g, cfg)
			if !fg.Connected() {
				t.Fatalf("%s shards=%d: connectivity lost (rounds=%d)", v, shards, st.Rounds)
			}
			cfg.Executor.Workers = 1
			if _, one := Run(g, cfg); !fg.Equal(one) {
				t.Fatalf("%s shards=%d: final graph differs from the one-worker run", v, shards)
			}
		}
	}
}
