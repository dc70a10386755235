package rel

import (
	"fmt"
	"math/rand"
	"slices"
	"testing"

	"repro/internal/graph"
	"repro/internal/ids"
	"repro/internal/phys"
	"repro/internal/sim"
	"repro/internal/trace"
)

// refNetwork is the sublayer this package had before its state went into
// slices — links in a map per endpoint, walked through a sorted copy of
// their peers on every heartbeat tick; the sender window a map from
// sequence number to a record allocated per send, with a closure for its
// timer; the receiver's out-of-order set a map — kept as the reference
// model that TestNetworkMatchesReference compares the Network against. It
// speaks the Network's wire format, *Frame and *Ack, with a new wrapper
// for every transmission and none recycled.
type refNetwork struct {
	raw   *phys.Network
	cfg   Config
	eps   map[ids.ID]*refEndpoint
	stats Stats
}

// traceDrop emits the EvMsgDrop of a frame the receiver discards.
func (n *refNetwork) traceDrop(m phys.Message, reason string) {
	if tr := n.raw.Tracer(); tr != nil {
		tr.Emit(trace.Event{
			T: int64(n.raw.Engine().Now()), Type: trace.EvMsgDrop,
			Node: m.From, Peer: m.To, Kind: m.Kind, Aux: reason,
		})
	}
}

type refEndpoint struct {
	net      *refNetwork
	self     ids.ID
	inner    phys.Handler
	links    map[ids.ID]*refLink
	hbSeq    uint64
	leaseCbs []phys.LeaseFunc
	selfDown bool
}

type refPending struct {
	timer    sim.Event
	m        phys.Message
	seq      uint64
	attempts int
	sentAt   sim.Time
	retx     bool
}

type refLink struct {
	ep           *refEndpoint
	peer         ids.ID
	nextSeq      uint64
	sent, lowest uint64
	inflight     map[uint64]*refPending
	queue        []*refPending
	qhead        int
	est          *RTOEstimator
	maxRun       uint64
	ahead        map[uint64]struct{}
	lastHeard    sim.Time
	heardEver    bool
	down         bool
}

func newRef(raw *phys.Network, cfg Config) *refNetwork {
	if cfg.Window <= 0 {
		cfg.Window = 1
	}
	return &refNetwork{raw: raw, cfg: cfg, eps: make(map[ids.ID]*refEndpoint)}
}

func (n *refNetwork) Counters() *phys.Counters { return n.raw.Counters() }
func (n *refNetwork) Stats() Stats             { return n.stats }

func (n *refNetwork) Register(v ids.ID, h phys.Handler) {
	ep, ok := n.eps[v]
	if !ok {
		ep = &refEndpoint{net: n, self: v, links: make(map[ids.ID]*refLink)}
		n.eps[v] = ep
		n.raw.Register(v, phys.HandlerFunc(ep.handle))
		n.raw.Engine().After(n.cfg.HeartbeatEvery, ep.tick)
	}
	ep.inner = h
}

func (n *refNetwork) SubscribeLeases(self ids.ID, cb phys.LeaseFunc) {
	n.eps[self].leaseCbs = append(n.eps[self].leaseCbs, cb)
}

func (n *refNetwork) Send(m phys.Message) bool {
	ep, ok := n.eps[m.From]
	if !ok || !n.raw.Up(m.From) || !n.raw.Topology().HasEdge(m.From, m.To) {
		n.raw.Counters().Inc("drop:no-link", 1)
		if tr := n.raw.Tracer(); tr != nil {
			tr.Emit(trace.Event{
				T: int64(n.raw.Engine().Now()), Type: trace.EvMsgDrop,
				Node: m.From, Peer: m.To, Kind: m.Kind, Aux: "no-link",
			})
		}
		return false
	}
	n.stats.Sent++
	ep.link(m.To).send(m)
	return true
}

func (n *refNetwork) Broadcast(from ids.ID, kind string, payload any) int {
	sent := 0
	for _, u := range n.raw.NeighborsOf(from) {
		if n.Send(phys.Message{From: from, To: u, Kind: kind, Payload: payload}) {
			sent++
		}
	}
	return sent
}

func (ep *refEndpoint) link(peer ids.ID) *refLink {
	l, ok := ep.links[peer]
	if !ok {
		l = &refLink{
			ep: ep, peer: peer,
			inflight: make(map[uint64]*refPending),
			ahead:    make(map[uint64]struct{}),
			est:      NewRTOEstimator(ep.net.cfg.MinRTO, ep.net.cfg.MaxRTO, ep.net.cfg.InitialRTO),
		}
		ep.links[peer] = l
	}
	return l
}

func (ep *refEndpoint) sortedPeers() []ids.ID {
	out := make([]ids.ID, 0, len(ep.links))
	for p := range ep.links {
		out = append(out, p)
	}
	ids.SortAsc(out)
	return out
}

func (ep *refEndpoint) tick() {
	n := ep.net
	eng := n.raw.Engine()
	defer eng.After(n.cfg.HeartbeatEvery, ep.tick)
	if !n.raw.Up(ep.self) {
		ep.selfDown = true
		return
	}
	if ep.selfDown {
		ep.selfDown = false
		now := eng.Now()
		for _, peer := range ep.sortedPeers() {
			ep.links[peer].lastHeard = now
		}
	}
	ep.hbSeq++
	for _, u := range n.raw.NeighborsOf(ep.self) {
		if n.raw.Send(phys.Message{From: ep.self, To: u, Kind: HeartbeatKind, Payload: Heartbeat{Seq: ep.hbSeq}}) {
			n.stats.Heartbeats++
		}
	}
	now := eng.Now()
	for _, peer := range ep.sortedPeers() {
		l := ep.links[peer]
		if l.heardEver && !l.down && now-l.lastHeard > n.cfg.LeaseDuration {
			l.down = true
			n.stats.LeaseDowns++
			ep.emitLease(peer, false)
		}
	}
}

func (ep *refEndpoint) emitLease(peer ids.ID, up bool) {
	n := ep.net
	if tr := n.raw.Tracer(); tr != nil {
		v, aux := 1.0, "down"
		if up {
			v, aux = 0.0, "up"
		}
		tr.Emit(trace.Event{
			T: int64(n.raw.Engine().Now()), Type: trace.EvLeaseExpire,
			Node: ep.self, Peer: peer, Kind: "lease", Aux: aux, Value: v,
		})
	}
	for _, cb := range ep.leaseCbs {
		cb(peer, up)
	}
}

func (ep *refEndpoint) handle(m phys.Message) {
	switch pl := m.Payload.(type) {
	case phys.Garbled:
		ep.link(m.From).heard()
	case *Frame:
		ep.link(m.From).recvData(m, pl)
	case *Ack:
		ep.link(m.From).recvAck(pl)
	case Heartbeat:
		ep.link(m.From).heard()
	default:
		ep.link(m.From).heard()
		if ep.inner != nil {
			ep.inner.HandleMessage(m)
		}
	}
}

func (l *refLink) heard() {
	l.lastHeard = l.ep.net.raw.Engine().Now()
	l.heardEver = true
	if l.down {
		l.down = false
		l.ep.net.stats.LeaseUps++
		l.ep.emitLease(l.peer, true)
	}
}

func (l *refLink) send(m phys.Message) {
	l.nextSeq++
	p := &refPending{m: m, seq: l.nextSeq}
	p.timer.Fn = func() {
		if l.inflight[p.seq] == p {
			l.retransmit(p)
		}
	}
	if len(l.inflight) < l.ep.net.cfg.Window {
		l.transmit(p)
	} else {
		l.queue = append(l.queue, p)
	}
}

func (l *refLink) transmit(p *refPending) {
	l.inflight[p.seq] = p
	l.sent = p.seq
	p.sentAt = l.ep.net.raw.Engine().Now()
	l.ep.net.raw.Send(phys.Message{
		From: p.m.From, To: p.m.To, Kind: p.m.Kind, Hops: p.m.Hops,
		Payload: &Frame{Seq: p.seq, Hops: p.m.Hops, Inner: p.m.Payload},
	})
	l.ep.net.raw.Engine().Arm(&p.timer, l.est.RTO())
}

func (l *refLink) retransmit(p *refPending) {
	n := l.ep.net
	eng := n.raw.Engine()
	if !n.raw.Up(p.m.From) {
		eng.Arm(&p.timer, l.est.RTO())
		return
	}
	if p.attempts >= n.cfg.MaxRetries {
		delete(l.inflight, p.seq)
		n.stats.Abandons++
		n.raw.Counters().Inc("drop:rel-abandon", 1)
		if tr := n.raw.Tracer(); tr != nil {
			tr.Emit(trace.Event{
				T: int64(eng.Now()), Type: trace.EvMsgDrop,
				Node: p.m.From, Peer: p.m.To, Kind: p.m.Kind, Aux: "rel-abandon",
			})
		}
		l.pump()
		return
	}
	p.attempts++
	p.retx = true
	l.est.Backoff()
	n.stats.Retransmits++
	if tr := n.raw.Tracer(); tr != nil {
		tr.Emit(trace.Event{
			T: int64(eng.Now()), Type: trace.EvRetransmit,
			Node: p.m.From, Peer: p.m.To, Kind: p.m.Kind, Value: float64(p.attempts),
		})
	}
	n.raw.Send(phys.Message{
		From: p.m.From, To: p.m.To, Kind: p.m.Kind, Hops: p.m.Hops,
		Payload: &Frame{Seq: p.seq, Hops: p.m.Hops, Inner: p.m.Payload},
	})
	eng.Arm(&p.timer, l.est.RTO())
}

func (l *refLink) pump() {
	for l.qhead < len(l.queue) && len(l.inflight) < l.ep.net.cfg.Window {
		p := l.queue[l.qhead]
		l.queue[l.qhead] = nil
		l.qhead++
		l.transmit(p)
	}
	if l.qhead == len(l.queue) {
		l.queue, l.qhead = l.queue[:0], 0
	}
}

func (l *refLink) recvData(m phys.Message, f *Frame) {
	n := l.ep.net
	l.heard()
	if f.Seq > l.maxRun+uint64(4*n.cfg.Window)+4 {
		n.raw.Counters().Inc("drop:rel-overflow", 1)
		n.traceDrop(m, "rel-overflow")
		return
	}
	fresh := f.Seq > l.maxRun
	if fresh {
		if _, dup := l.ahead[f.Seq]; dup {
			fresh = false
		}
	}
	if fresh {
		l.ahead[f.Seq] = struct{}{}
		for {
			if _, ok := l.ahead[l.maxRun+1]; !ok {
				break
			}
			delete(l.ahead, l.maxRun+1)
			l.maxRun++
		}
	} else {
		n.stats.Duplicates++
		n.raw.Counters().Inc("drop:duplicate", 1)
		n.traceDrop(m, "duplicate")
	}
	if n.raw.Send(phys.Message{From: m.To, To: m.From, Kind: AckKind, Payload: &Ack{Seq: f.Seq, Cum: l.maxRun}}) {
		n.stats.AcksSent++
	}
	if fresh && l.ep.inner != nil {
		l.ep.inner.HandleMessage(phys.Message{
			From: m.From, To: m.To, Kind: m.Kind, Payload: f.Inner, Hops: f.Hops + 1,
		})
	}
}

func (l *refLink) recvAck(a *Ack) {
	n := l.ep.net
	l.heard()
	if p, ok := l.inflight[a.Seq]; ok {
		delete(l.inflight, a.Seq)
		if !p.retx {
			rtt := n.raw.Engine().Now() - p.sentAt
			l.est.Sample(rtt)
			n.stats.RTTSamples++
			if tr := n.raw.Tracer(); tr != nil {
				tr.Emit(trace.Event{
					T: int64(n.raw.Engine().Now()), Type: trace.EvRtoUpdate,
					Node: p.m.From, Peer: p.m.To, Kind: "rto",
					Aux:   fmt.Sprintf("srtt=%.2f rttvar=%.2f", l.est.SRTT(), l.est.RTTVar()),
					Value: float64(l.est.RTO()),
				})
			}
		}
	}
	for cum := min(a.Cum, l.sent); l.lowest <= cum; l.lowest++ {
		delete(l.inflight, l.lowest)
	}
	l.pump()
}

// relUnderTest is the surface a script drives, once over the Network and
// once over the reference.
type relUnderTest interface {
	Register(v ids.ID, h phys.Handler)
	SubscribeLeases(self ids.ID, cb phys.LeaseFunc)
	Send(m phys.Message) bool
	Broadcast(from ids.ID, kind string, payload any) int
	Counters() *phys.Counters
	Stats() Stats
}

// eventLog is a tracer that appends every event to a shared log.
type eventLog struct{ log *[]any }

func (l eventLog) Emit(e trace.Event) { *l.log = append(*l.log, e) }

// playRelScript builds a reliable network with newRel over nodes 1…5 (a
// ring with the chord 1–3) and decodes script into operations on it and on
// the raw network under it. The first byte picks the tuning: a window of 1
// to 4 frames (so sends queue) and 1 to 4 retries (so frames are
// abandoned). It returns everything observable, as comparable values:
// every delivery and lease verdict a protocol sees, every trace event, the
// Stats after each operation, and the counter snapshot at the end. It also
// returns the network, for its totals.
//
// Each operation is an opcode byte and up to three argument bytes (missing
// bytes read as 0). Besides reliable sends it forges raw frames the way a
// corrupted or malicious frame arrives: duplicate, out-of-order and
// far-ahead data frames, ACKs with forged Cum marks, heartbeats, garbled
// and non-sublayer payloads.
func playRelScript(script []byte, newRel func(*phys.Network, Config) relUnderTest) ([]any, relUnderTest) {
	next := func() byte {
		if len(script) == 0 {
			return 0
		}
		b := script[0]
		script = script[1:]
		return b
	}
	nodes := []ids.ID{1, 2, 3, 4, 5}
	node := func() ids.ID { return nodes[int(next())%len(nodes)] }
	var log []any
	e := sim.NewEngine(11)
	g := graph.Ring(nodes)
	g.AddEdge(1, 3)
	raw := phys.NewNetwork(e, g, phys.WithTracer(eventLog{&log}))
	cfg := DefaultConfig()
	tune := next()
	cfg.Window, cfg.MaxRetries = 1+int(tune&3), 1+int(tune>>2&3)
	cfg.HeartbeatEvery, cfg.LeaseDuration = 16, 64
	n := newRel(raw, cfg)
	for _, v := range nodes {
		v := v
		n.Register(v, phys.HandlerFunc(func(m phys.Message) {
			log = append(log, e.Now(), m)
		}))
		n.SubscribeLeases(v, func(peer ids.ID, up bool) {
			log = append(log, e.Now(), "lease", v, peer, up)
		})
	}
	payload := 0
	forge := func(pl any) bool {
		return raw.Send(phys.Message{From: node(), To: node(), Kind: "t:forged", Payload: pl})
	}
	for len(script) > 0 {
		op := next() % 12
		var ret any
		switch op {
		case 0, 1:
			payload++
			ret = n.Send(phys.Message{From: node(), To: node(), Kind: "t:data", Payload: payload})
		case 2:
			payload++
			ret = n.Broadcast(node(), "t:bcast", payload)
		case 3: // a data frame near the receiver's marks: duplicate, in order or ahead
			ret = forge(&Frame{Seq: uint64(next() & 15), Inner: "forged"})
		case 4: // a data frame far ahead: overflow
			ret = forge(&Frame{Seq: uint64(next()) << 4, Inner: "forged"})
		case 5: // an ACK with any Seq and Cum, forged marks included
			ret = forge(&Ack{Seq: uint64(next() & 15), Cum: uint64(next())})
		case 6:
			switch b := next(); b % 3 {
			case 0:
				ret = forge(Heartbeat{Seq: uint64(b)})
			case 1:
				ret = forge(phys.Garbled{})
			case 2:
				ret = forge("not-sublayer-traffic")
			}
		case 7:
			if b := next(); b&1 == 0 {
				raw.FailNode(node())
			} else {
				raw.RecoverNode(node())
			}
		case 8: // link churn: removal, addition, or a flap under frames in flight
			u, v := node(), node()
			switch next() % 3 {
			case 0:
				raw.RemoveLink(u, v)
			case 1:
				raw.AddLink(u, v)
			case 2:
				raw.RemoveLink(u, v)
				raw.AddLink(u, v)
			}
		case 9:
			b := next()
			raw.SetLoss(float64(b&3) / 5)
			raw.SetJitter(sim.Time(b >> 2 & 3))
			raw.SetCorruption(float64(b>>4&1) / 5)
		case 10:
			ret = e.RunUntil(e.Now()+sim.Time(next()), nil)
		case 11:
			ret = e.Step()
		}
		log = append(log, "op", op, ret, e.Now(), e.Pending(), e.EventsExecuted(), n.Stats())
	}
	raw.SetLoss(0)
	e.RunUntil(e.Now()+4096, nil)
	log = append(log, fmt.Sprintf("end now=%d executed=%d stats=%+v counters=%v",
		e.Now(), e.EventsExecuted(), n.Stats(), raw.Counters().Snapshot()))
	return log, n
}

// checkRelScript fails unless the Network and the reference agree on
// everything script makes observable, and returns the Network.
func checkRelScript(t *testing.T, script []byte) relUnderTest {
	t.Helper()
	got, n := playRelScript(script, func(raw *phys.Network, cfg Config) relUnderTest { return New(raw, cfg) })
	want, _ := playRelScript(script, func(raw *phys.Network, cfg Config) relUnderTest { return newRef(raw, cfg) })
	if slices.Equal(got, want) {
		return n
	}
	i := 0
	for i < len(got) && i < len(want) && got[i] == want[i] {
		i++
	}
	t.Fatalf("script %x: network and reference diverge at log line %d:\n network   %q\n reference %q",
		script, i, got[i:min(i+3, len(got))], want[i:min(i+3, len(want))])
	return nil
}

// TestNetworkMatchesReference is the differential test: random scripts of
// reliable sends over small windows with few retries, forged frames, node
// and link churn, loss, jitter and corruption. The scripts must between
// them reach every path they are meant to cover.
func TestNetworkMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	var total Stats
	reached := map[string]int64{}
	for i := 0; i < 400; i++ {
		script := make([]byte, 1+rng.Intn(200))
		rng.Read(script)
		n := checkRelScript(t, script)
		st := n.Stats()
		total.Retransmits += st.Retransmits
		total.Abandons += st.Abandons
		total.Duplicates += st.Duplicates
		total.LeaseDowns += st.LeaseDowns
		total.LeaseUps += st.LeaseUps
		for _, k := range []string{"drop:rel-overflow", "drop:stale-link", "drop:corrupt"} {
			reached[k] += n.Counters().Get(k)
		}
	}
	if total.Retransmits == 0 || total.Abandons == 0 || total.Duplicates == 0 || total.LeaseDowns == 0 || total.LeaseUps == 0 {
		t.Errorf("scripts left a path unexercised: %+v", total)
	}
	for k, v := range reached {
		if v == 0 {
			t.Errorf("scripts never produced %s", k)
		}
	}
}
