package vrr

import (
	"testing"

	"repro/internal/graph"
	"repro/internal/ids"
)

// TestCloseRingSweep is VRR's third of `make sweep`: `regular` n=64 inputs
// on generator and engine seeds 2²⁰+1 … 2²⁰+1000 (100 with -short or
// -race), the layered benchmark's boot-isprp-vrr inputs, CloseRing set,
// deadline 4096. It prints the stall count and names the seeds (offsets
// from 2²⁰) that stall; more than maxStalls fails.
func TestCloseRingSweep(t *testing.T) {
	const n, deadline, maxStalls = 64, 4096, 3
	seeds := 1000
	if testing.Short() || raceEnabled {
		seeds = 100
	}
	var stalled []int
	for s := 1; s <= seeds; s++ {
		seed := int64(1)<<20 + int64(s)
		g, err := graph.Generate(graph.TopoRegular, n, graph.RandomIDs, seed)
		if err != nil {
			t.Fatal(err)
		}
		c := NewCluster(newNet(t, g, seed), Config{CloseRing: true})
		if _, ok := c.RunUntilConsistent(deadline); !ok {
			stalled = append(stalled, s)
		}
		c.Stop()
	}
	t.Logf("sweep: %d seeds, %d stalls %v", seeds, len(stalled), stalled)
	if len(stalled) > maxStalls {
		t.Errorf("%d stalls, want at most %d: seeds 2^20 + %v", len(stalled), maxStalls, stalled)
	}
}

// TestDiscoverAckFollowsFirstVisit is the input whose discovery acks looped
// for ever: a discovery whose committed paths cross one node twice used to
// leave that node's reverse hop pointing into the loop, and the ack, which
// has no hop bound, went round it (25 629 acks, no ring by t=1024). With the
// first visit's hop kept the ring closes at t=88 on 42 acks.
func TestDiscoverAckFollowsFirstVisit(t *testing.T) {
	seed := int64(1)<<20 + 6
	g, err := graph.Generate(graph.TopoRegular, 64, graph.RandomIDs, seed)
	if err != nil {
		t.Fatal(err)
	}
	net := newNet(t, g, seed)
	c := NewCluster(net, Config{CloseRing: true})
	at, ok := c.RunUntilConsistent(1024)
	acks := net.Counters().Get(KindDiscoverAck)
	if !ok || acks > 100 {
		t.Errorf("consistent=%v at t=%d with %d discovery acks, want the ring by t=1024 on ≤ 100", ok, at, acks)
	}
	t.Logf("t=%d, %d discovery acks", at, acks)
}

// TestDiscoverPassesThroughOrigin: physical line 5 — 1 — 3 — 9, so every
// path from 5 to 9 crosses 1. The minimum 1 commits its clockwise discovery
// to 5, whose best endpoint is 9, over a path through 1: the discovery must
// pass through its own origin on the way, not die there.
func TestDiscoverPassesThroughOrigin(t *testing.T) {
	topo := graph.New()
	topo.AddEdge(5, 1)
	topo.AddEdge(1, 3)
	topo.AddEdge(3, 9)
	net := newNet(t, topo, 1)
	c := NewCluster(net, Config{}) // no closure tick: 1's discovery is the only one
	if _, ok := c.RunUntilConsistent(60000); !ok {
		t.Fatal("the line did not form")
	}
	c.Nodes[1].sendDiscover(ids.Left)
	net.Engine().RunUntil(net.Engine().Now()+256, nil)
	if p, ok := c.Nodes[9].wrap.Partner(ids.Right); !ok || p != 1 {
		t.Errorf("max 9's right wrap partner = %v (has=%v), want 1", p, ok)
	}
	if p, ok := c.Nodes[1].wrap.Partner(ids.Left); !ok || p != 9 {
		t.Errorf("min 1's left wrap partner = %v (has=%v), want 9", p, ok)
	}
}
