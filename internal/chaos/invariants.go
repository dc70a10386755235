package chaos

import (
	"fmt"

	"repro/internal/graph"
	"repro/internal/ids"
	"repro/internal/node"
	"repro/internal/phys"
	"repro/internal/sim"
	"repro/internal/trace"
)

// PendingAuditor is an optional protocol capability: the total count of
// in-flight introduction operations. Implemented by ssr.Cluster; protocols
// without it simply skip the pending-bound invariant.
type PendingAuditor interface {
	PendingOps() int
}

// RouteAuditor is an optional protocol capability: a scan of every cached
// source route counting those with repeated hops. Implemented by
// ssr.Cluster.
type RouteAuditor interface {
	AuditRoutes() (total, looped int)
}

// Invariant names. They match the Kind field of trace.EvInvariant events.
const (
	InvConnectivity = "connectivity"  // virtual graph spans the up-subgraph
	InvPendingBound = "pending-bound" // pending introductions stay bounded
	InvRouteLoops   = "route-loops"   // no cached source route repeats a hop
	InvReconverge   = "reconverge"    // consistency regained after the last fault
)

// Violation is one failed invariant check.
type Violation struct {
	T         sim.Time `json:"t"`
	Invariant string   `json:"invariant"`
	Detail    string   `json:"detail"`
}

// Checker runs the online invariants on a fixed cadence while a schedule
// plays out. Connectivity is only checked in quiet windows — no fault
// window active, no node down, and a grace period elapsed since the last
// disturbance — because during a partition or crash the virtual graph
// legitimately mirrors the broken physical graph; the invariant is that
// the protocol's view never breaks when the network itself is whole.
// Pending-bound and route-loop checks run unconditionally: those must
// hold even mid-fault.
type Checker struct {
	net   *phys.Network
	proto node.Protocol
	every sim.Time
	grace sim.Time
	bound int // pending-ops ceiling

	down    ids.Set
	active  int // fault windows currently open
	quietAt sim.Time

	checks     map[string]int64
	violations []Violation
	stopped    bool
}

// The checker's settings. Pending introductions self-expire within 8
// ticks, so mid-fault peaks of a few per node are legitimate: the pending
// bound exists to catch unbounded growth, not transient retry pressure.
const (
	checkEvery     = sim.Time(64)  // check cadence, and Run's consistency poll
	checkGrace     = sim.Time(512) // settling time after a disturbance before connectivity checks resume
	pendingPerNode = 16            // pending-ops ceiling per node
)

// NewChecker builds a checker over a live network and protocol.
func NewChecker(net *phys.Network, proto node.Protocol) *Checker {
	return &Checker{
		net: net, proto: proto, every: checkEvery, grace: checkGrace,
		bound: pendingPerNode * len(net.Nodes()),
		down:  ids.NewSet(), checks: make(map[string]int64),
	}
}

// Start begins the periodic check chain (first check one cadence from
// now). The chain survives until Stop.
func (c *Checker) Start() {
	c.net.Engine().After(c.every, c.tick)
}

// Stop halts the check chain after the current tick.
func (c *Checker) Stop() { c.stopped = true }

// FaultBegin tells the checker a fault window opened.
func (c *Checker) FaultBegin() { c.active++ }

// FaultEnd tells the checker a fault window closed; connectivity checks
// resume after the grace period (if no other window remains open).
func (c *Checker) FaultEnd() {
	c.active--
	if at := c.net.Engine().Now() + c.grace; at > c.quietAt {
		c.quietAt = at
	}
}

// NoteDown / NoteUp track crashed nodes so connectivity is judged on the
// up-subgraph only.
func (c *Checker) NoteDown(v ids.ID) { c.down.Add(v) }

// NoteUp marks a recovered node.
func (c *Checker) NoteUp(v ids.ID) {
	c.down.Remove(v)
	if at := c.net.Engine().Now() + c.grace; at > c.quietAt {
		c.quietAt = at
	}
}

// Violations returns every failed check so far.
func (c *Checker) Violations() []Violation { return c.violations }

// TotalChecks returns the number of invariant evaluations performed.
func (c *Checker) TotalChecks() int64 {
	var t int64
	for _, v := range c.checks {
		t += v
	}
	return t
}

func (c *Checker) tick() {
	if c.stopped {
		return
	}
	c.checkPending()
	c.checkRouteLoops()
	c.checkConnectivity()
	c.net.Engine().After(c.every, c.tick)
}

func (c *Checker) checkPending() {
	pa, ok := c.proto.(PendingAuditor)
	if !ok {
		return
	}
	p := pa.PendingOps()
	c.record(InvPendingBound, p <= c.bound,
		fmt.Sprintf("%d pending ops exceed bound %d", p, c.bound))
}

func (c *Checker) checkRouteLoops() {
	ra, ok := c.proto.(RouteAuditor)
	if !ok {
		return
	}
	total, looped := ra.AuditRoutes()
	c.record(InvRouteLoops, looped == 0,
		fmt.Sprintf("%d of %d cached routes contain a repeated hop", looped, total))
}

func (c *Checker) checkConnectivity() {
	now := c.net.Engine().Now()
	if c.active > 0 || now < c.quietAt {
		return
	}
	phys := restrict(c.net.Topology(), c.down)
	if !phys.Connected() {
		// The physical network itself is broken (e.g. a scenario that cut
		// links permanently); the protocol cannot be blamed for that.
		return
	}
	virt := restrict(c.proto.VirtualGraph(), c.down)
	for _, v := range phys.Nodes() {
		virt.AddNode(v) // a node the protocol has no edges for must still count
	}
	c.record(InvConnectivity, virt.Connected(),
		fmt.Sprintf("virtual graph splits into %d components over a connected up-subgraph",
			len(virt.Components())))
}

// Final records the end-of-run reconvergence verdict.
func (c *Checker) Final(converged bool, at sim.Time) {
	c.record(InvReconverge, converged,
		fmt.Sprintf("no global consistency by t=%d", int64(at)))
}

// record counts one check, stores the violation if it failed, and emits
// the trace.EvInvariant event (Value 0 pass / 1 violation) so tracectl
// report and any Analysis teed into the run see every evaluation.
func (c *Checker) record(invariant string, ok bool, detail string) {
	c.checks[invariant]++
	now := c.net.Engine().Now()
	val, aux := 0.0, ""
	if !ok {
		val, aux = 1, detail
		c.violations = append(c.violations, Violation{T: now, Invariant: invariant, Detail: detail})
	}
	if tr := c.net.Tracer(); tr != nil {
		tr.Emit(trace.Event{
			T: int64(now), Type: trace.EvInvariant,
			Kind: invariant, Value: val, Aux: aux,
		})
	}
}

// restrict clones g without the given nodes.
func restrict(g *graph.Graph, without ids.Set) *graph.Graph {
	out := g.Clone()
	for v := range without {
		out.RemoveNode(v)
	}
	return out
}
