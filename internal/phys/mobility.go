package phys

import (
	"math"

	"repro/internal/ids"
	"repro/internal/sim"
)

// Mobility moves nodes of a unit-disk network with the random-waypoint
// model: each node picks a uniform waypoint in the unit square, travels
// toward it at its speed, then picks the next. Radio links are recomputed
// after every movement step; link changes surface through the network's
// topology (and through the optional callbacks), which is what drives the
// MANET experiments — SSR/VRR must keep the virtual ring consistent while
// the physical graph changes underneath.
type Mobility struct {
	net *Network
	// nodes is the id set ascending. Every loop that draws from the engine
	// RNG or changes the topology walks it, never a map, so a run is a
	// function of the seed alone.
	nodes  []ids.ID
	pos    map[ids.ID][2]float64
	wp     map[ids.ID][2]float64
	radius float64
	// Speed is distance traveled per movement step.
	Speed float64
	// Interval is the simulated time between movement steps.
	Interval sim.Time

	// OnLinkUp / OnLinkDown, if set, observe link changes.
	OnLinkUp, OnLinkDown func(a, b ids.ID)

	linkChanges int64
	stopped     bool
}

// NewMobility creates (but does not start) a mobility process over the
// given initial positions (e.g. from graph.UnitDisk) and radio radius.
func NewMobility(net *Network, positions map[ids.ID][2]float64, radius float64) *Mobility {
	pos := make(map[ids.ID][2]float64, len(positions))
	nodes := make([]ids.ID, 0, len(positions))
	for v, p := range positions {
		pos[v] = p
		nodes = append(nodes, v)
	}
	ids.SortAsc(nodes)
	return &Mobility{
		net:      net,
		nodes:    nodes,
		pos:      pos,
		wp:       make(map[ids.ID][2]float64, len(positions)),
		radius:   radius,
		Speed:    0.01,
		Interval: 16,
	}
}

// Positions returns the live positions (read-only by convention).
func (m *Mobility) Positions() map[ids.ID][2]float64 { return m.pos }

// LinkChanges returns how many link up/down events have occurred.
func (m *Mobility) LinkChanges() int64 { return m.linkChanges }

// Start begins periodic movement.
func (m *Mobility) Start() {
	for _, v := range m.nodes {
		m.wp[v] = m.randomWaypoint()
	}
	m.net.Engine().After(m.Interval, m.step)
}

// Stop halts movement after the current step.
func (m *Mobility) Stop() { m.stopped = true }

func (m *Mobility) randomWaypoint() [2]float64 {
	r := m.net.Engine().Rand()
	return [2]float64{r.Float64(), r.Float64()}
}

func (m *Mobility) step() {
	if m.stopped {
		return
	}
	for _, v := range m.nodes {
		p, t := m.pos[v], m.wp[v]
		dx, dy := t[0]-p[0], t[1]-p[1]
		d := math.Hypot(dx, dy)
		if d <= m.Speed {
			m.pos[v] = t
			m.wp[v] = m.randomWaypoint()
			continue
		}
		m.pos[v] = [2]float64{p[0] + dx/d*m.Speed, p[1] + dy/d*m.Speed}
	}
	m.recomputeLinks()
	m.net.Engine().After(m.Interval, m.step)
}

// recomputeLinks diffs the unit-disk graph against the network topology and
// applies link changes. To keep the experiments meaningful the network is
// never allowed to partition: links whose removal would disconnect the
// graph are kept (modeling a minimum-connectivity deployment, consistent
// with the paper's standing assumption of a connected physical network).
func (m *Mobility) recomputeLinks() {
	nodes := m.nodes
	rr := m.radius * m.radius
	topo := m.net.Topology()
	for i := 0; i < len(nodes); i++ {
		for j := i + 1; j < len(nodes); j++ {
			a, b := nodes[i], nodes[j]
			pa, pb := m.pos[a], m.pos[b]
			dx, dy := pa[0]-pb[0], pa[1]-pb[1]
			inRange := dx*dx+dy*dy <= rr
			has := topo.HasEdge(a, b)
			switch {
			case inRange && !has:
				m.net.AddLink(a, b)
				m.linkChanges++
				if m.OnLinkUp != nil {
					m.OnLinkUp(a, b)
				}
			case !inRange && has:
				// Keep the link if removing it would disconnect the graph.
				m.net.unlink(a, b)
				if !topo.Connected() {
					m.net.AddLink(a, b)
					continue
				}
				m.linkChanges++
				if m.OnLinkDown != nil {
					m.OnLinkDown(a, b)
				}
			}
		}
	}
}
