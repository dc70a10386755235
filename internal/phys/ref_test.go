package phys

import (
	"fmt"
	"math/rand"
	"slices"
	"testing"

	"repro/internal/graph"
	"repro/internal/ids"
	"repro/internal/sim"
	"repro/internal/trace"
)

// refNetwork is the Network this package had before dense node indices —
// handler and down maps probed by ids.ID, and a per-link epoch read on
// every send and every delivery — kept as the reference model that
// TestNetworkMatchesReference and FuzzNetworkScript compare the Network
// against. Its unlink is what Mobility did then: remove the edge from the
// topology behind the network's back.
type refNetwork struct {
	engine      *sim.Engine
	topo        *graph.Graph
	handlers    map[ids.ID]Handler
	down        ids.Set
	latency     LatencyModel
	lossProb    float64
	jitter      sim.Time
	corruptProb float64
	linkEpoch   map[linkKey]uint64
	counters    *Counters
	tracer      trace.Tracer
}

func newRefNetwork(engine *sim.Engine, topo *graph.Graph, latency LatencyModel, tracer trace.Tracer) *refNetwork {
	return &refNetwork{
		engine: engine, topo: topo.Clone(), handlers: make(map[ids.ID]Handler), down: ids.NewSet(),
		latency: latency, linkEpoch: make(map[linkKey]uint64), counters: NewCounters(), tracer: tracer,
	}
}

func (n *refNetwork) Topology() *graph.Graph  { return n.topo }
func (n *refNetwork) Counters() *Counters     { return n.counters }
func (n *refNetwork) SetLoss(p float64)       { n.lossProb = p }
func (n *refNetwork) SetJitter(j sim.Time)    { n.jitter = j }
func (n *refNetwork) SetCorruption(p float64) { n.corruptProb = p }
func (n *refNetwork) FailNode(v ids.ID)       { n.down.Add(v) }
func (n *refNetwork) RecoverNode(v ids.ID)    { n.down.Remove(v) }
func (n *refNetwork) AddLink(u, v ids.ID)     { n.topo.AddEdge(u, v) }
func (n *refNetwork) unlink(u, v ids.ID) bool { return n.topo.RemoveEdge(u, v) }

func (n *refNetwork) Register(v ids.ID, h Handler) {
	n.topo.AddNode(v)
	n.handlers[v] = h
}

func (n *refNetwork) Nodes() []ids.ID {
	out := make([]ids.ID, 0, len(n.handlers))
	for v := range n.handlers {
		out = append(out, v)
	}
	ids.SortAsc(out)
	return out
}

func (n *refNetwork) NeighborsOf(v ids.ID) []ids.ID {
	if n.down.Has(v) {
		return nil
	}
	var out []ids.ID
	for _, u := range n.topo.Neighbors(v) {
		if !n.down.Has(u) {
			out = append(out, u)
		}
	}
	return out
}

func (n *refNetwork) Up(v ids.ID) bool {
	_, ok := n.handlers[v]
	return ok && !n.down.Has(v)
}

func (n *refNetwork) Send(m Message) bool {
	if !n.Up(m.From) || !n.topo.HasEdge(m.From, m.To) {
		n.counters.Inc("drop:no-link", 1)
		n.traceDrop(m, "no-link")
		return false
	}
	n.counters.Inc(m.Kind, 1)
	if n.lossProb > 0 && n.engine.Rand().Float64() < n.lossProb {
		n.counters.Inc("drop:loss", 1)
		if n.tracer != nil {
			n.tracer.Emit(trace.Event{
				T: int64(n.engine.Now()), Type: trace.EvMsgSend,
				Node: m.From, Peer: m.To, Kind: m.Kind,
			})
		}
		n.traceDrop(m, "loss")
		return true
	}
	d := n.latency(m.From, m.To)
	if n.jitter > 0 {
		d += sim.Time(n.engine.Rand().Int63n(int64(n.jitter) + 1))
	}
	epoch := n.linkEpoch[mkLinkKey(m.From, m.To)]
	if n.tracer != nil {
		n.tracer.Emit(trace.Event{
			T: int64(n.engine.Now()), Type: trace.EvMsgSend,
			Node: m.From, Peer: m.To, Kind: m.Kind, Value: float64(d),
		})
	}
	m.Hops++
	n.engine.After(d, func() { n.deliver(m, epoch) })
	return true
}

func (n *refNetwork) deliver(m Message, epoch uint64) {
	if !n.Up(m.To) {
		n.counters.Inc("drop:dest-down", 1)
		n.traceDrop(m, "dest-down")
		return
	}
	if !n.topo.HasEdge(m.From, m.To) {
		n.counters.Inc("drop:link-gone", 1)
		n.traceDrop(m, "link-gone")
		return
	}
	if n.linkEpoch[mkLinkKey(m.From, m.To)] != epoch {
		n.counters.Inc("drop:stale-link", 1)
		n.traceDrop(m, "stale-link")
		return
	}
	if n.corruptProb > 0 && n.engine.Rand().Float64() < n.corruptProb {
		n.counters.Inc("drop:corrupt", 1)
		n.traceDrop(m, "corrupt")
		m.Payload = Garbled{}
	}
	if n.tracer != nil {
		n.tracer.Emit(trace.Event{
			T: int64(n.engine.Now()), Type: trace.EvMsgRecv,
			Node: m.To, Peer: m.From, Kind: m.Kind,
		})
	}
	if h, ok := n.handlers[m.To]; ok {
		h.HandleMessage(m)
	}
}

func (n *refNetwork) traceDrop(m Message, reason string) {
	if n.tracer != nil {
		n.tracer.Emit(trace.Event{
			T: int64(n.engine.Now()), Type: trace.EvMsgDrop,
			Node: m.From, Peer: m.To, Kind: m.Kind, Aux: reason,
		})
	}
}

func (n *refNetwork) Broadcast(from ids.ID, kind string, payload any) int {
	sent := 0
	for _, u := range n.NeighborsOf(from) {
		if n.Send(Message{From: from, To: u, Kind: kind, Payload: payload}) {
			sent++
		}
	}
	return sent
}

func (n *refNetwork) RemoveLink(u, v ids.ID) {
	if n.topo.HasEdge(u, v) {
		n.linkEpoch[mkLinkKey(u, v)]++
	}
	n.topo.RemoveEdge(u, v)
}

// scriptNet is the surface a script drives, once over the Network and once
// over the reference. unlink is a Mobility link removal.
type scriptNet interface {
	Topology() *graph.Graph
	Counters() *Counters
	Register(v ids.ID, h Handler)
	Nodes() []ids.ID
	NeighborsOf(v ids.ID) []ids.ID
	Up(v ids.ID) bool
	Send(m Message) bool
	Broadcast(from ids.ID, kind string, payload any) int
	FailNode(v ids.ID)
	RecoverNode(v ids.ID)
	AddLink(u, v ids.ID)
	RemoveLink(u, v ids.ID)
	unlink(u, v ids.ID) bool
	SetLoss(p float64)
	SetJitter(j sim.Time)
	SetCorruption(p float64)
}

// eventLog is a tracer that appends every event to a shared log.
type eventLog struct{ log *[]any }

func (l eventLog) Emit(e trace.Event) { *l.log = append(*l.log, e) }

// scriptNodes is the identifier pool of a script: 1…6 start on a ring with
// the chord 1–4, 7 joins the topology only if a script adds it, and 8 never
// does.
const scriptNodes = 8

// scriptLatency varies the delay per link, so frames on different links
// overtake each other even without jitter.
func scriptLatency(from, to ids.ID) sim.Time { return 1 + sim.Time(from+to)%3 }

// playNetScript builds a network with newNet, decodes script into network
// operations and returns everything observable, as comparable values:
// every delivery a handler sees, every trace event, and after each
// operation Now, Pending, EventsExecuted, Nodes, and Up and NeighborsOf of
// every node; at the end the counter snapshot. Nodes 1–4 register up front, the others only if
// the script registers them.
//
// Each operation is an opcode byte and up to three argument bytes (missing
// bytes read as 0). A handler answers a frame whose int payload is a
// multiple of four with a frame back to its sender, so deliveries send from
// inside delivery.
func playNetScript(script []byte, newNet func(*sim.Engine, *graph.Graph, trace.Tracer) scriptNet) []any {
	next := func() byte {
		if len(script) == 0 {
			return 0
		}
		b := script[0]
		script = script[1:]
		return b
	}
	node := func() ids.ID { return ids.ID(1 + int(next())%scriptNodes) }
	var log []any
	e := sim.NewEngine(7)
	g := graph.Ring([]ids.ID{1, 2, 3, 4, 5, 6})
	g.AddEdge(1, 4)
	net := newNet(e, g, eventLog{&log})
	register := func(v ids.ID) {
		net.Register(v, HandlerFunc(func(m Message) {
			log = append(log, e.Now(), m)
			if k, ok := m.Payload.(int); ok && k%4 == 0 {
				net.Send(Message{From: v, To: m.From, Kind: "t:reply", Payload: k + 1, Hops: m.Hops})
			}
		}))
	}
	for v := ids.ID(1); v <= 4; v++ {
		register(v)
	}
	payload := 0
	for len(script) > 0 {
		op := next() % 14
		var ret any
		switch op {
		case 0, 1: // Send, to any node: adjacent, not adjacent, unknown
			payload++
			ret = net.Send(Message{From: node(), To: node(), Kind: fmt.Sprintf("t:%d", op), Payload: payload})
		case 2:
			payload++
			ret = net.Broadcast(node(), "t:bcast", payload)
		case 3:
			net.AddLink(node(), node())
		case 4:
			net.RemoveLink(node(), node())
		case 5: // a Mobility link removal
			ret = net.unlink(node(), node())
		case 6:
			net.FailNode(node())
		case 7:
			net.RecoverNode(node())
		case 8: // late Register, or a new handler for a registered node
			register(node())
		case 9:
			net.Topology().AddNode(node())
		case 10:
			net.SetJitter(sim.Time(next() & 7))
		case 11:
			b := next()
			net.SetLoss(float64(b&3) / 4)
			net.SetCorruption(float64(b>>2&3) / 4)
		case 12:
			ret = e.RunUntil(e.Now()+sim.Time(next()&15), nil)
		case 13:
			ret = e.Step()
		}
		log = append(log, "op", op, ret, e.Now(), e.Pending(), e.EventsExecuted(), "nodes")
		for _, v := range net.Nodes() {
			log = append(log, v)
		}
		for v := ids.ID(1); v <= scriptNodes; v++ {
			log = append(log, net.Up(v), "nbrs")
			for _, u := range net.NeighborsOf(v) {
				log = append(log, u)
			}
		}
	}
	e.Run(0)
	log = append(log, fmt.Sprintf("end now=%d executed=%d counters=%v", e.Now(), e.EventsExecuted(), net.Counters().Snapshot()))
	return log
}

// checkNetScript fails unless the Network and the reference agree on
// everything script makes observable.
func checkNetScript(t *testing.T, script []byte) {
	t.Helper()
	got := playNetScript(script, func(e *sim.Engine, g *graph.Graph, tr trace.Tracer) scriptNet {
		return NewNetwork(e, g, WithLatency(scriptLatency), WithTracer(tr))
	})
	want := playNetScript(script, func(e *sim.Engine, g *graph.Graph, tr trace.Tracer) scriptNet {
		return newRefNetwork(e, g, scriptLatency, tr)
	})
	if slices.Equal(got, want) {
		return
	}
	i := 0
	for i < len(got) && i < len(want) && got[i] == want[i] {
		i++
	}
	t.Fatalf("script %x: network and reference diverge at log line %d:\n network   %q\n reference %q",
		script, i, got[i:min(i+3, len(got))], want[i:min(i+3, len(want))])
}

// TestNetworkMatchesReference is the differential test: random scripts of
// sends, broadcasts, link churn (RemoveLink and Mobility removals), node
// churn, late registration, jitter, loss and corruption.
func TestNetworkMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 3000; i++ {
		script := make([]byte, 1+rng.Intn(160))
		rng.Read(script)
		checkNetScript(t, script)
	}
}

// FuzzNetworkScript hands the script decoder to the fuzzer.
func FuzzNetworkScript(f *testing.F) {
	f.Add([]byte{0, 0, 1, 4, 0, 1, 3, 0, 1, 12, 15})         // flap 1–2 under a frame in flight
	f.Add([]byte{0, 0, 1, 5, 0, 1, 3, 0, 1, 12, 15})         // the same flap by Mobility
	f.Add([]byte{6, 5, 8, 5, 0, 0, 5, 7, 5, 0, 0, 5, 12, 9}) // fail before Register
	f.Add([]byte{9, 6, 3, 0, 6, 0, 0, 6, 8, 6, 12, 9})       // late node, registered in flight
	f.Add([]byte{10, 7, 11, 9, 2, 0, 2, 1, 12, 15, 13, 13})  // jitter, loss, corruption
	f.Fuzz(func(t *testing.T, script []byte) {
		if len(script) > 1<<10 {
			t.Skip()
		}
		checkNetScript(t, script)
	})
}
