package node

import (
	"reflect"
	"testing"

	"repro/internal/graph"
	"repro/internal/ids"
	"repro/internal/phys"
	"repro/internal/sim"
	"repro/internal/sroute"
	"repro/internal/trace"
)

// fakeMember is a protocol participant with a fixed virtual neighborhood.
type fakeMember struct {
	id      ids.ID
	nbrs    []ids.ID
	stopped bool
}

func (m *fakeMember) VirtualNeighbors() []ids.ID { return m.nbrs }
func (m *fakeMember) Stop()                      { m.stopped = true }

// fakeCluster builds a cluster of fakeMembers over a topology whose nodes
// were added in a shuffled order; every member's virtual neighbor is the
// next identifier in that shuffled order.
func fakeCluster(t *testing.T, journal *[]string) (*phys.Network, *Cluster[*fakeMember]) {
	t.Helper()
	shuffled := []ids.ID{40, 10, 50, 30, 20}
	topo := graph.New()
	for _, v := range shuffled {
		topo.AddNode(v)
	}
	next := map[ids.ID]ids.ID{}
	for i, v := range shuffled {
		next[v] = shuffled[(i+1)%len(shuffled)]
	}
	net := phys.NewNetwork(sim.NewEngine(1), topo)
	c := NewCluster(net, func() bool { return false },
		func(v ids.ID) *fakeMember {
			*journal = append(*journal, "create "+v.String())
			return &fakeMember{id: v, nbrs: []ids.ID{next[v]}}
		},
		func(v ids.ID, m *fakeMember) {
			if m.id != v {
				t.Errorf("start(%v) handed member %v", v, m.id)
			}
			*journal = append(*journal, "start "+v.String())
		})
	return net, &c
}

func TestClusterCreatesThenStartsAscending(t *testing.T) {
	var journal []string
	_, c := fakeCluster(t, &journal)
	var want []string
	for _, op := range []string{"create ", "start "} {
		for _, v := range []ids.ID{10, 20, 30, 40, 50} {
			want = append(want, op+v.String())
		}
	}
	if !reflect.DeepEqual(journal, want) {
		t.Errorf("lifecycle order:\n got %v\nwant %v", journal, want)
	}
	if got := c.IDs(); !reflect.DeepEqual(got, []ids.ID{10, 20, 30, 40, 50}) {
		t.Errorf("IDs() = %v", got)
	}
}

func TestVirtualGraphIsUnionOfVirtualNeighbors(t *testing.T) {
	var journal []string
	_, c := fakeCluster(t, &journal)
	c.Nodes[10].nbrs = nil // a member with no virtual edge is still a node
	g := c.VirtualGraph()
	if g.NumNodes() != 5 {
		t.Fatalf("virtual graph has %d nodes, want 5", g.NumNodes())
	}
	// Shuffled order 40→10→50→30→20→40, minus 10's own edge.
	want := [][2]ids.ID{{40, 10}, {50, 30}, {30, 20}, {20, 40}}
	for _, e := range want {
		if !g.HasEdge(e[0], e[1]) {
			t.Errorf("edge %v-%v missing", e[0], e[1])
		}
	}
	if g.NumEdges() != len(want) {
		t.Errorf("%d edges, want %d", g.NumEdges(), len(want))
	}
}

func TestStopStopsMembersAndRetiresProbe(t *testing.T) {
	var journal []string
	net, c := fakeCluster(t, &journal)
	c.AttachProbe(nil, 4) // a nil probe schedules nothing
	if net.Engine().Pending() != 0 {
		t.Fatal("AttachProbe(nil) must not schedule")
	}
	probe := &trace.Probe{}
	c.AttachProbe(probe, 4)
	eng := net.Engine()
	eng.RunUntil(20, nil)
	if probe.Len() != 5 { // t = 4, 8, 12, 16, 20
		t.Fatalf("probe took %d samples by t=20, want 5", probe.Len())
	}
	c.Stop()
	for v, m := range c.Nodes {
		if !m.stopped {
			t.Errorf("member %v not stopped", v)
		}
	}
	eng.RunUntil(100, nil)
	if probe.Len() != 5 || eng.Pending() != 0 {
		t.Errorf("after Stop: %d samples, %d pending events; the probe chain must retire", probe.Len(), eng.Pending())
	}
}

func TestRunUntilConsistentPollsTheOracle(t *testing.T) {
	topo := graph.NewWithNodes(1, 2)
	net := phys.NewNetwork(sim.NewEngine(1), topo)
	polls := 0
	c := NewCluster(net, func() bool { polls++; return net.Engine().Now() >= 40 },
		func(v ids.ID) *fakeMember { return &fakeMember{id: v} },
		func(ids.ID, *fakeMember) {})
	net.Engine().Every(1, func() bool { return true }) // keep the queue alive
	at, ok := c.RunUntilConsistent(1000)
	if !ok || at != 40 || polls != 5 {
		t.Errorf("converged=%v at %d after %d polls, want true at 40 after 5 (one per 8 ticks)", ok, at, polls)
	}
}

type succMember struct {
	succ ids.ID
	has  bool
}

func (m succMember) Successor() (ids.ID, bool) { return m.succ, m.has }

func TestSuccessors(t *testing.T) {
	got := Successors(map[ids.ID]succMember{1: {2, true}, 2: {1, true}, 3: {}})
	if len(got) != 2 || got[1] != 2 || got[2] != 1 {
		t.Errorf("Successors = %v, want the two set pointers only", got)
	}
}

func TestMaintain(t *testing.T) {
	topo := graph.NewWithNodes(7, 8)
	topo.AddEdge(7, 8)
	net := phys.NewNetwork(sim.NewEngine(1), topo)
	for _, v := range topo.Nodes() {
		net.Register(v, phys.HandlerFunc(func(phys.Message) {}))
	}
	eng := net.Engine()
	var fired []sim.Time
	stopped := false
	const interval, jitter = 16, 5
	Maintain(net, 7, interval, jitter, &stopped, func() { fired = append(fired, eng.Now()) })

	eng.RunUntil(20, nil)
	if len(fired) != 0 {
		t.Fatalf("fired at %v, before interval+jitter", fired)
	}
	eng.RunUntil(60, nil)
	if want := []sim.Time{21, 37, 53}; !reflect.DeepEqual(fired, want) {
		t.Fatalf("fired at %v, want %v", fired, want)
	}

	// Down: no body, but the chain stays scheduled.
	net.FailNode(7)
	eng.RunUntil(120, nil)
	if len(fired) != 3 {
		t.Fatalf("body ran while the node was down: %v", fired)
	}
	if eng.Pending() == 0 {
		t.Fatal("a down node must stay scheduled")
	}
	// Recovered: maintenance resumes on the old phase, nobody restarts it.
	net.RecoverNode(7)
	eng.RunUntil(140, nil)
	if want := []sim.Time{21, 37, 53, 133}; !reflect.DeepEqual(fired, want) {
		t.Fatalf("after recovery fired at %v, want %v", fired, want)
	}

	stopped = true
	eng.RunUntil(400, nil)
	if len(fired) != 4 || eng.Pending() != 0 {
		t.Errorf("after stop: fired %v, %d pending; the chain must end", fired, eng.Pending())
	}
}

func TestMaintainBodyRunsBeforeRearm(t *testing.T) {
	// What body schedules for tick T+interval must fire ahead of the next
	// maintenance tick at the same instant: event order is behaviour.
	topo := graph.NewWithNodes(7)
	net := phys.NewNetwork(sim.NewEngine(1), topo)
	net.Register(7, phys.HandlerFunc(func(phys.Message) {}))
	eng := net.Engine()
	var order []string
	stopped := false
	Maintain(net, 7, 10, 0, &stopped, func() {
		order = append(order, "tick")
		eng.After(10, func() { order = append(order, "timer") })
	})
	eng.RunUntil(20, nil)
	if want := []string{"tick", "timer", "tick"}; !reflect.DeepEqual(order, want) {
		t.Errorf("order %v, want %v", order, want)
	}
}

// leasedNet is a raw network that also claims a failure detector.
type leasedNet struct {
	*phys.Network
	subscribed map[ids.ID]phys.LeaseFunc
}

func (l *leasedNet) SubscribeLeases(self ids.ID, cb phys.LeaseFunc) { l.subscribed[self] = cb }

func TestAttach(t *testing.T) {
	topo := graph.Line([]ids.ID{1, 2})
	raw := phys.NewNetwork(sim.NewEngine(1), topo)
	got := 0
	noLease := func(ids.ID, bool) { t.Error("the raw network has no leases") }
	Attach(raw, 1, func(phys.Message) {}, noLease)
	Attach(raw, 2, func(phys.Message) { got++ }, noLease)
	raw.Send(phys.Message{From: 1, To: 2, Kind: "frame"})
	raw.Engine().Run(0)
	if got != 1 {
		t.Fatalf("handler saw %d frames, want 1", got)
	}
	leased := &leasedNet{Network: raw, subscribed: map[ids.ID]phys.LeaseFunc{}}
	var verdicts []ids.ID
	Attach(leased, 1, func(phys.Message) {}, func(peer ids.ID, _ bool) { verdicts = append(verdicts, peer) })
	if leased.subscribed[1] == nil {
		t.Fatal("a transport with a failure detector must get the lease callback")
	}
	leased.subscribed[1](2, false)
	if !reflect.DeepEqual(verdicts, []ids.ID{2}) {
		t.Fatalf("lease verdicts = %v", verdicts)
	}
}

func TestOverhear(t *testing.T) {
	route := sroute.Route{1, 2, 3, 4}
	var buf sroute.Route
	segments := func(hop int) []sroute.Route {
		var out []sroute.Route
		Overhear(phys.SRPacket{Route: route, Hop: hop}, &buf, func(r sroute.Route) { out = append(out, r.Clone()) })
		return out
	}
	if got, want := segments(1), []sroute.Route{{2, 1}, {2, 3, 4}}; !reflect.DeepEqual(got, want) {
		t.Errorf("relay 2 overheard %v, want %v", got, want)
	}
	// The ends of a route have one segment each: a route needs two nodes.
	if got, want := segments(0), []sroute.Route{{1, 2, 3, 4}}; !reflect.DeepEqual(got, want) {
		t.Errorf("source overheard %v, want %v", got, want)
	}
	if got, want := segments(3), []sroute.Route{{4, 3, 2, 1}}; !reflect.DeepEqual(got, want) {
		t.Errorf("destination overheard %v, want %v", got, want)
	}
	// The way back is reversed into the caller's buffer, which keeps its
	// storage from one packet to the next.
	before := &buf[0]
	segments(2)
	if &buf[0] != before || !reflect.DeepEqual(buf, sroute.Route{3, 2, 1}) {
		t.Errorf("buffer = %v, reallocated %v; want [3 2 1] in place", buf, &buf[0] != before)
	}
}
