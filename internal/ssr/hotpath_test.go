package ssr

import (
	"hash/fnv"
	"testing"

	"repro/internal/cache"
	"repro/internal/graph"
	"repro/internal/ids"
	"repro/internal/phys"
	"repro/internal/sim"
	"repro/internal/sroute"
	"repro/internal/trace"
)

// converged48 bootstraps SSR as the benchmark does (Bounded caches, ring
// closure both ways) on a 48-node unit-disk graph, to global consistency.
func converged48(t *testing.T, tr trace.Tracer) (*phys.Network, *Cluster) {
	t.Helper()
	g, err := graph.Generate(graph.TopoUnitDisk, 48, graph.RandomIDs, 1)
	if err != nil {
		t.Fatal(err)
	}
	net := phys.NewNetwork(sim.NewEngine(1, sim.WithTracer(tr)), g, phys.WithTracer(tr))
	c := NewCluster(net, Config{CacheMode: cache.Bounded, CloseRing: true, BothDirections: true})
	if at, ok := c.RunUntilConsistent(4096); !ok {
		t.Fatalf("not consistent by t=%d: %s", at, c.LineReport())
	}
	return net, c
}

// TestRelayHopAllocatesNothing pins the per-hop cost: a relay that forwards
// a packet whose two segments it already caches — Courier.Handle, the
// overheard routes and Network.Send together — allocates nothing. So do
// the reads every tick makes: lineNeighbors and the cache's Route,
// Nearest, Each and EachDir.
func TestRelayHopAllocatesNothing(t *testing.T) {
	net, c := converged48(t, nil)
	c.Stop()
	eng := net.Engine()
	eng.Run(0) // drain: the stopped ticks, timers and frames in flight

	// A cached route v → x → … → dst whose relay x caches its way back to v
	// and on to dst at least as short as the packet's.
	var v ids.ID
	var route sroute.Route
	for _, id := range c.IDs() {
		c.Nodes[id].rc.Each(func(dst ids.ID, r sroute.Route) {
			if route != nil || len(r) < 3 {
				return
			}
			x := c.Nodes[r[1]].rc
			if back, on := x.Route(id), x.Route(dst); back != nil && back.Hops() <= 1 && on != nil && on.Hops() <= r.Hops()-1 {
				v, route = id, r.Clone()
			}
		})
	}
	if route == nil {
		t.Fatal("no relay caches both segments of a cached route")
	}
	relay := c.Nodes[route[1]]
	// The network recycles delivered frames: put enough in its free list
	// for every forward below.
	for i := 0; i < 128; i++ {
		net.Send(phys.Message{From: v, To: relay.id, Kind: "warm"})
	}
	eng.Run(0)

	pkt := &phys.SRPacket{Route: route, Kind: KindKeepAck}
	m := phys.Message{From: v, To: relay.id, Kind: KindKeepAck, Payload: pkt}
	sent := net.Counters().Get(KindKeepAck)
	if a := testing.AllocsPerRun(100, func() {
		pkt.Hop = 0
		relay.courier.Handle(m)
	}); a != 0 {
		t.Errorf("relaying %v at %v: %v allocations per hop, want 0", route, relay.id, a)
	}
	if got := net.Counters().Get(KindKeepAck) - sent; got != 101 {
		t.Fatalf("relay forwarded %d packets, want 101", got)
	}
	eng.Run(0)

	n := c.Nodes[c.IDs()[len(c.IDs())/2]]
	visit := func(ids.ID, sroute.Route) {}
	if a := testing.AllocsPerRun(100, func() {
		n.lineNeighbors(ids.Left)
		n.lineNeighbors(ids.Right)
	}); a != 0 {
		t.Errorf("lineNeighbors: %v allocations, want 0", a)
	}
	if a := testing.AllocsPerRun(100, func() {
		n.rc.Route(route.Dst())
		n.rc.Nearest(ids.Left)
		n.rc.Nearest(ids.Right)
		n.rc.Each(visit)
		n.rc.EachDir(ids.Right, visit)
	}); a != 0 {
		t.Errorf("cache reads: %v allocations, want 0", a)
	}
}

// TestPruneBoundsBookkeepingAndChangesNothing runs a converged cluster for
// 4096 more ticks twice, with and without the keepalive-tick pruning of
// intros and tornDown. With pruning every entry left is younger than
// the window it stands for plus one keepalive period, so the maps stay
// bounded; and the two runs emit the same event stream, byte for byte.
func TestPruneBoundsBookkeepingAndChangesNothing(t *testing.T) {
	run := func(prune bool) (stream uint64, events int64, entries int) {
		pruneBookkeeping = prune
		defer func() { pruneBookkeeping = true }()
		h := fnv.New64a()
		w := trace.NewJSONLWriter(h)
		net, c := converged48(t, w)
		eng := net.Engine()
		end := eng.Now() + 4096
		for at := eng.Now() + 64; at <= end; at += 64 {
			eng.RunUntil(at, nil)
			if !prune {
				continue
			}
			now := eng.Now()
			for _, n := range c.Nodes {
				for key, op := range n.intros {
					if now-op.at >= (reintroduceAfter+keepaliveEvery)*n.cfg.TickInterval {
						t.Fatalf("t=%d: node %v still holds pair %v introduced at %d", now, n.id, key, op.at)
					}
				}
				for x, expiry := range n.tornDown {
					if now-expiry >= keepaliveEvery*n.cfg.TickInterval {
						t.Fatalf("t=%d: node %v still holds %v's tombstone, expired at %d", now, n.id, x, expiry)
					}
				}
			}
		}
		for _, n := range c.Nodes {
			entries += len(n.intros) + len(n.tornDown)
		}
		if err := w.Close(); err != nil {
			t.Fatal(err)
		}
		return h.Sum64(), w.Count(), entries
	}
	pruned, events, kept := run(true)
	unpruned, _, all := run(false)
	if pruned != unpruned {
		t.Fatalf("pruning changed the event stream: %x vs %x", pruned, unpruned)
	}
	if kept >= all {
		t.Errorf("pruning kept %d entries, the unpruned run %d", kept, all)
	}
	t.Logf("%d events; intros + tornDown entries: %d pruned, %d unpruned", events, kept, all)
}
