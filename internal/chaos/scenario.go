// Package chaos is the deterministic adversity harness: seeded fault
// scenarios (loss bursts, partitions with heal, crash/recover churn,
// latency jitter, frame corruption) compiled into concrete timed action
// schedules, plus an online invariant checker that watches a bootstrap
// protocol while the faults play out.
//
// Determinism is the whole point. A Scenario is compiled against a
// topology with a dedicated rand.Rand seeded from the scenario seed —
// never the engine RNG — so the same (scenario, topology, seed) triple
// yields a byte-identical Schedule no matter which protocol runs under
// it. That is what makes cross-protocol comparisons fair: linearization,
// ISPRP, VRR and the flood baseline all face exactly the same partition
// cut, the same churn victims at the same instants.
//
// The runner (run.go) replays a Schedule on a live phys.Network while the
// Checker (invariants.go) probes the protocol's virtual graph, pending
// state and route caches, emitting trace.EvInvariant events so tracectl
// report can attribute any violation to its instant and invariant.
package chaos

import (
	"fmt"
	"math/rand"
	"sort"
	"strings"

	"repro/internal/graph"
	"repro/internal/ids"
	"repro/internal/sim"
)

// FaultKind names one family of scheduled adversity.
type FaultKind string

const (
	// LossBurst raises the frame-loss probability to Prob for the window.
	LossBurst FaultKind = "loss-burst"
	// Partition cuts every edge of a randomly drawn connected bipartition
	// at Start and heals all of them at Start+Duration.
	Partition FaultKind = "partition"
	// Churn crashes Victims nodes one after another, each down for
	// Downtime. Victims are drawn so the remaining up-subgraph stays
	// connected, and their windows never overlap — at most one node is
	// down at any instant (the flood baseline's virtual ring minus two
	// nodes would be disconnected by construction, which would turn the
	// connectivity invariant into a tautological failure).
	Churn FaultKind = "churn"
	// JitterSpike adds per-frame delivery jitter of Jitter for the window,
	// reordering frames that share a link.
	JitterSpike FaultKind = "jitter"
	// Corruption garbles delivered frames with probability Prob for the
	// window (payload replaced by phys.Garbled — decode paths must cope).
	Corruption FaultKind = "corruption"
)

// FaultSpec is one declarative fault in a Scenario. Start is absolute
// engine time and must lie at or after the scenario warmup when the
// protocols run over the raw network: the flood baseline transmits only
// during its initial flood epoch and never retransmits, so faults injected
// before warmup would make its non-convergence a property of the schedule,
// not the protocol. A scenario that declares Transport: "reliable" lifts
// the restriction — the rel sublayer retransmits until delivery, so a
// fault active from t=0 tests exactly the cold-start robustness the
// sublayer exists to provide.
type FaultSpec struct {
	Kind     FaultKind `json:"kind"`
	Start    sim.Time  `json:"start"`
	Duration sim.Time  `json:"duration"`
	Prob     float64   `json:"prob,omitempty"`     // loss-burst, corruption
	Jitter   sim.Time  `json:"jitter,omitempty"`   // jitter
	Victims  int       `json:"victims,omitempty"`  // churn
	Downtime sim.Time  `json:"downtime,omitempty"` // churn
}

// TransportReliable marks a scenario as designed for the reliable-delivery
// sublayer (internal/rel). Declaring it relaxes Compile's warmup check so
// faults may start before — or at — t=0 of the bootstrap itself.
const TransportReliable = "reliable"

// Scenario is a named, declarative adversity script. Faults may overlap;
// the Checker suspends connectivity checks while any fault window is
// active and for a grace period after the last one ends.
type Scenario struct {
	Name   string      `json:"name"`
	Warmup sim.Time    `json:"warmup"` // fault-free bootstrap phase
	Settle sim.Time    `json:"settle"` // quiet phase after the last fault
	Faults []FaultSpec `json:"faults"`
	// Transport declares the transport the scenario is designed for: ""
	// (raw phys.Network) or TransportReliable. Reliable scenarios may
	// schedule faults before the warmup boundary — retransmission makes a
	// cold start under sustained loss survivable, and proving that is the
	// point of such scenarios.
	Transport string `json:"transport,omitempty"`
}

// ActionKind names one concrete scheduled operation in a compiled
// Schedule.
type ActionKind string

const (
	ActSetLoss    ActionKind = "set-loss"
	ActSetJitter  ActionKind = "set-jitter"
	ActSetCorrupt ActionKind = "set-corrupt"
	ActCutLink    ActionKind = "cut-link"
	ActHealLink   ActionKind = "heal-link"
	ActKill       ActionKind = "kill"
	ActRecover    ActionKind = "recover"
	// ActFaultBegin / ActFaultEnd bracket each FaultSpec's window so the
	// runner can tell the invariant checker when the network is disturbed
	// without re-deriving fault semantics.
	ActFaultBegin ActionKind = "fault-begin"
	ActFaultEnd   ActionKind = "fault-end"
)

// Action is one concrete timed operation of a compiled schedule.
type Action struct {
	At     sim.Time   `json:"at"`
	Kind   ActionKind `json:"kind"`
	Node   ids.ID     `json:"node,omitempty"` // kill, recover
	U      ids.ID     `json:"u,omitempty"`    // cut-link, heal-link
	V      ids.ID     `json:"v,omitempty"`
	Prob   float64    `json:"prob,omitempty"`
	Jitter sim.Time   `json:"jitter,omitempty"`
	Fault  string     `json:"fault,omitempty"` // originating FaultKind
}

func (a Action) describe() string {
	switch a.Kind {
	case ActSetLoss, ActSetCorrupt:
		return fmt.Sprintf("%s p=%.3f", a.Kind, a.Prob)
	case ActSetJitter:
		return fmt.Sprintf("%s j=%d", a.Kind, int64(a.Jitter))
	case ActCutLink, ActHealLink:
		return fmt.Sprintf("%s {%s,%s}", a.Kind, a.U, a.V)
	case ActKill, ActRecover:
		return fmt.Sprintf("%s %s", a.Kind, a.Node)
	default:
		return fmt.Sprintf("%s %s", a.Kind, a.Fault)
	}
}

// Schedule is a compiled scenario: every fault resolved into concrete
// timed actions against one specific topology. Actions are sorted by time
// with a deterministic tie-break, so the rendering (String) is
// byte-identical for identical (scenario, topology, seed) inputs.
type Schedule struct {
	Scenario  string   `json:"scenario"`
	Seed      int64    `json:"seed"`
	Actions   []Action `json:"actions"`
	LastFault sim.Time `json:"last_fault"` // time of the final action
}

// String renders the schedule deterministically, one action per line.
// The same-seed reproducibility acceptance test compares these renderings
// byte for byte.
func (s *Schedule) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "schedule %s seed=%d actions=%d last=%d\n",
		s.Scenario, s.Seed, len(s.Actions), int64(s.LastFault))
	for _, a := range s.Actions {
		fmt.Fprintf(&b, "  t=%-8d %s\n", int64(a.At), a.describe())
	}
	return b.String()
}

// Compile resolves a scenario against a topology using a dedicated RNG
// seeded by seed. The engine RNG is never consulted, so the schedule is
// identical across protocols and runs.
func Compile(scn Scenario, topo *graph.Graph, seed int64) (*Schedule, error) {
	r := rand.New(rand.NewSource(seed))
	sched := &Schedule{Scenario: scn.Name, Seed: seed, LastFault: scn.Warmup}
	for i, f := range scn.Faults {
		if f.Start < scn.Warmup && scn.Transport != TransportReliable {
			return nil, fmt.Errorf("fault %d (%s) starts at %d, before warmup %d (declare Transport: %q to allow cold-start faults)",
				i, f.Kind, int64(f.Start), int64(scn.Warmup), TransportReliable)
		}
		if f.Duration <= 0 {
			return nil, fmt.Errorf("fault %d (%s) has non-positive duration", i, f.Kind)
		}
		end := f.Start + f.Duration
		acts, err := compileFault(f, topo, r)
		if err != nil {
			return nil, fmt.Errorf("fault %d: %w", i, err)
		}
		name := string(f.Kind)
		sched.Actions = append(sched.Actions, Action{At: f.Start, Kind: ActFaultBegin, Fault: name})
		sched.Actions = append(sched.Actions, acts...)
		sched.Actions = append(sched.Actions, Action{At: end, Kind: ActFaultEnd, Fault: name})
	}
	sort.SliceStable(sched.Actions, func(i, j int) bool {
		return sched.Actions[i].At < sched.Actions[j].At
	})
	for _, a := range sched.Actions {
		if a.At > sched.LastFault {
			sched.LastFault = a.At
		}
	}
	return sched, nil
}

func compileFault(f FaultSpec, topo *graph.Graph, r *rand.Rand) ([]Action, error) {
	end := f.Start + f.Duration
	switch f.Kind {
	case LossBurst:
		return []Action{
			{At: f.Start, Kind: ActSetLoss, Prob: f.Prob, Fault: string(f.Kind)},
			{At: end, Kind: ActSetLoss, Prob: 0, Fault: string(f.Kind)},
		}, nil
	case Corruption:
		return []Action{
			{At: f.Start, Kind: ActSetCorrupt, Prob: f.Prob, Fault: string(f.Kind)},
			{At: end, Kind: ActSetCorrupt, Prob: 0, Fault: string(f.Kind)},
		}, nil
	case JitterSpike:
		return []Action{
			{At: f.Start, Kind: ActSetJitter, Jitter: f.Jitter, Fault: string(f.Kind)},
			{At: end, Kind: ActSetJitter, Jitter: 0, Fault: string(f.Kind)},
		}, nil
	case Partition:
		cut := partitionCut(topo, r)
		if len(cut) == 0 {
			return nil, fmt.Errorf("partition: topology has no cuttable bipartition")
		}
		acts := make([]Action, 0, 2*len(cut))
		for _, e := range cut {
			acts = append(acts, Action{At: f.Start, Kind: ActCutLink, U: e.U, V: e.V, Fault: string(f.Kind)})
		}
		for _, e := range cut {
			acts = append(acts, Action{At: end, Kind: ActHealLink, U: e.U, V: e.V, Fault: string(f.Kind)})
		}
		return acts, nil
	case Churn:
		if f.Victims <= 0 {
			return nil, fmt.Errorf("churn: Victims must be positive")
		}
		slot := f.Duration / sim.Time(f.Victims)
		if f.Downtime <= 0 || f.Downtime >= slot {
			return nil, fmt.Errorf("churn: Downtime %d must be positive and below the per-victim slot %d",
				int64(f.Downtime), int64(slot))
		}
		victims, err := churnVictims(topo, f.Victims, r)
		if err != nil {
			return nil, err
		}
		acts := make([]Action, 0, 2*len(victims))
		for i, v := range victims {
			kill := f.Start + sim.Time(i)*slot
			acts = append(acts,
				Action{At: kill, Kind: ActKill, Node: v, Fault: string(f.Kind)},
				Action{At: kill + f.Downtime, Kind: ActRecover, Node: v, Fault: string(f.Kind)})
		}
		return acts, nil
	default:
		return nil, fmt.Errorf("unknown fault kind %q", f.Kind)
	}
}

// partitionCut draws a connected bipartition: a BFS tree from a random
// start claims half the nodes (the BFS side is connected by construction),
// and the cut is every edge crossing the divide, in canonical order.
func partitionCut(topo *graph.Graph, r *rand.Rand) []graph.Edge {
	nodes := topo.Nodes()
	if len(nodes) < 2 {
		return nil
	}
	start := nodes[r.Intn(len(nodes))]
	want := len(nodes) / 2
	if want == 0 {
		want = 1
	}
	side := ids.NewSet(start)
	queue := []ids.ID{start}
	for len(queue) > 0 && side.Len() < want {
		v := queue[0]
		queue = queue[1:]
		for _, u := range topo.Neighbors(v) {
			if side.Len() >= want {
				break
			}
			if side.Add(u) {
				queue = append(queue, u)
			}
		}
	}
	var cut []graph.Edge
	for _, e := range topo.Edges() {
		if side.Has(e.U) != side.Has(e.V) {
			cut = append(cut, e)
		}
	}
	return cut
}

// churnVictims draws distinct victims whose individual removal keeps the
// topology connected (victims are down one at a time, so single-removal
// connectivity is the right criterion).
func churnVictims(topo *graph.Graph, want int, r *rand.Rand) ([]ids.ID, error) {
	cand := topo.Nodes()
	r.Shuffle(len(cand), func(i, j int) { cand[i], cand[j] = cand[j], cand[i] })
	var victims []ids.ID
	for _, v := range cand {
		if len(victims) == want {
			break
		}
		rest := topo.Clone()
		rest.RemoveNode(v)
		if rest.Connected() {
			victims = append(victims, v)
		}
	}
	if len(victims) < want {
		return nil, fmt.Errorf("churn: only %d of %d victims removable without disconnecting the topology",
			len(victims), want)
	}
	return victims, nil
}

// Suite is the committed scenario suite behind `make bench-chaos`: one
// calm baseline (the message-overhead reference) plus one scenario per
// fault family and a combined stress. All faults start at or after the
// shared warmup so every protocol — including the retransmission-free
// flood baseline — bootstraps undisturbed first.
func Suite() []Scenario {
	const warmup, settle = sim.Time(2048), sim.Time(1024)
	return []Scenario{
		{Name: "calm", Warmup: warmup, Settle: settle},
		{Name: "loss-burst", Warmup: warmup, Settle: settle, Faults: []FaultSpec{
			{Kind: LossBurst, Start: warmup, Duration: 2048, Prob: 0.3},
		}},
		{Name: "partition-heal", Warmup: warmup, Settle: settle, Faults: []FaultSpec{
			{Kind: Partition, Start: warmup, Duration: 2048},
		}},
		{Name: "churn", Warmup: warmup, Settle: settle, Faults: []FaultSpec{
			{Kind: Churn, Start: warmup, Duration: 4096, Victims: 2, Downtime: 1024},
		}},
		{Name: "jitter-reorder", Warmup: warmup, Settle: settle, Faults: []FaultSpec{
			{Kind: JitterSpike, Start: warmup, Duration: 2048, Jitter: 8},
		}},
		{Name: "corruption", Warmup: warmup, Settle: settle, Faults: []FaultSpec{
			{Kind: Corruption, Start: warmup, Duration: 2048, Prob: 0.25},
		}},
		{Name: "stress-combo", Warmup: warmup, Settle: settle, Faults: []FaultSpec{
			{Kind: LossBurst, Start: warmup, Duration: 1536, Prob: 0.15},
			{Kind: JitterSpike, Start: warmup, Duration: 1536, Jitter: 8},
			{Kind: Churn, Start: warmup + 2048, Duration: 2048, Victims: 1, Downtime: 1024},
		}},
	}
}
