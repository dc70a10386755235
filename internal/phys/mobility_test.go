package phys

import (
	"reflect"
	"testing"

	"repro/internal/graph"
	"repro/internal/ids"
	"repro/internal/sim"
)

func snapshotPositions(m *Mobility) map[ids.ID][2]float64 {
	out := make(map[ids.ID][2]float64, len(m.Positions()))
	for v, p := range m.Positions() {
		out[v] = p
	}
	return out
}

func TestMobilityMovesAndRewires(t *testing.T) {
	e := sim.NewEngine(5)
	nodes := graph.MakeIDs(16, graph.RandomIDs, e.Rand())
	radius := 0.4
	topo, pos := graph.UnitDisk(nodes, radius, e.Rand())
	net := NewNetwork(e, topo)
	m := NewMobility(net, pos, radius)
	m.Speed = 0.05
	m.Interval = 10
	var ups, downs int
	m.OnLinkUp = func(a, b ids.ID) { ups++ }
	m.OnLinkDown = func(a, b ids.ID) { downs++ }
	m.Start()
	before := snapshotPositions(m)
	e.RunUntil(500, nil)
	m.Stop()
	moved := 0
	for v, p := range m.Positions() {
		if p != before[v] {
			moved++
		}
		if p[0] < 0 || p[0] > 1 || p[1] < 0 || p[1] > 1 {
			t.Errorf("node %s left the unit square: %v", v, p)
		}
	}
	if moved < len(nodes)/2 {
		t.Errorf("only %d nodes moved", moved)
	}
	if !net.Topology().Connected() {
		t.Error("mobility must preserve physical connectivity")
	}
	if int64(ups+downs) != m.LinkChanges() {
		t.Errorf("callback count %d != LinkChanges %d", ups+downs, m.LinkChanges())
	}
	if m.LinkChanges() == 0 {
		t.Error("expected some link churn at this speed")
	}
}

func TestMobilityStopHaltsMovement(t *testing.T) {
	e := sim.NewEngine(9)
	nodes := graph.MakeIDs(8, graph.RandomIDs, e.Rand())
	topo, pos := graph.UnitDisk(nodes, 0.5, e.Rand())
	net := NewNetwork(e, topo)
	m := NewMobility(net, pos, 0.5)
	m.Interval = 10
	m.Start()
	e.RunUntil(100, nil)
	m.Stop()
	e.Run(0)
	frozen := snapshotPositions(m)
	e.RunUntil(e.Now()+500, nil)
	for v, p := range m.Positions() {
		if p != frozen[v] {
			t.Errorf("node %s moved after Stop", v)
		}
	}
}

func TestMobilityLinksMatchRadius(t *testing.T) {
	e := sim.NewEngine(13)
	nodes := graph.MakeIDs(12, graph.RandomIDs, e.Rand())
	radius := 0.35
	topo, pos := graph.UnitDisk(nodes, radius, e.Rand())
	net := NewNetwork(e, topo)
	m := NewMobility(net, pos, radius)
	m.Speed = 0.03
	m.Interval = 10
	m.Start()
	e.RunUntil(400, nil)
	m.Stop()
	// Every in-range pair must be linked; out-of-range links are allowed
	// only when needed for connectivity.
	rr := radius * radius
	for i := 0; i < len(nodes); i++ {
		for j := i + 1; j < len(nodes); j++ {
			a, b := nodes[i], nodes[j]
			pa, pb := m.Positions()[a], m.Positions()[b]
			dx, dy := pa[0]-pb[0], pa[1]-pb[1]
			if dx*dx+dy*dy <= rr && !net.Topology().HasEdge(a, b) {
				t.Errorf("in-range pair %s-%s not linked", a, b)
			}
		}
	}
}

// TestMobilityDeterministic pins that a mobility run is a function of the
// seed alone: waypoints are drawn in ascending id order, never map order.
func TestMobilityDeterministic(t *testing.T) {
	run := func() (map[ids.ID][2]float64, int64, []graph.Edge) {
		e := sim.NewEngine(5)
		nodes := graph.MakeIDs(16, graph.RandomIDs, e.Rand())
		topo, pos := graph.UnitDisk(nodes, 0.4, e.Rand())
		m := NewMobility(NewNetwork(e, topo), pos, 0.4)
		m.Speed = 0.05
		m.Interval = 10
		m.Start()
		e.RunUntil(500, nil)
		m.Stop()
		return snapshotPositions(m), m.LinkChanges(), topo.Edges()
	}
	pos1, changes1, edges1 := run()
	pos2, changes2, edges2 := run()
	if !reflect.DeepEqual(pos1, pos2) {
		t.Error("same seed gave different final positions")
	}
	if changes1 != changes2 {
		t.Errorf("same seed gave LinkChanges %d then %d", changes1, changes2)
	}
	if !reflect.DeepEqual(edges1, edges2) {
		t.Errorf("same seed gave different topologies:\n%v\n%v", edges1, edges2)
	}
}
