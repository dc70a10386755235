package rel

import (
	"fmt"
	"slices"

	"repro/internal/graph"
	"repro/internal/ids"
	"repro/internal/phys"
	"repro/internal/sim"
	"repro/internal/trace"
)

// Frame wraps one protocol payload with a per-link sequence number. The
// enclosing phys.Message keeps the inner protocol Kind, so per-kind counters
// stay comparable between raw and reliable runs — a retransmission costs one
// more physical frame of its own kind, which is exactly the overhead the
// reliability bench measures.
type Frame struct {
	Seq   uint64
	Hops  int // sender-side hop count of the inner message
	Inner any
}

// Ack confirms receipt of one frame. Seq names the frame that triggered the
// ACK (the RTT sample source); Cum is the receiver's cumulative high-water
// mark — every frame with sequence ≤ Cum has been delivered, so one ACK can
// retire several in-flight frames after an ACK loss.
type Ack struct {
	Seq uint64
	Cum uint64
}

// Heartbeat keeps a link's lease alive when no data flows. Seq increments
// per heartbeat so traces show gaps.
type Heartbeat struct {
	Seq uint64
}

// Counter kinds for the sublayer's own traffic. They ride phys.Counters like
// any other kind, so Total() reflects the true physical cost of reliability.
const (
	AckKind       = "rel:ack"
	HeartbeatKind = "rel:hb"
)

// Config tunes the sublayer. All durations are simulator ticks.
type Config struct {
	// MinRTO / MaxRTO clamp the adaptive retransmission timeout; InitialRTO
	// is used before the first RTT sample.
	MinRTO, MaxRTO, InitialRTO sim.Time
	// Window bounds the unacked frames in flight per link; further sends
	// queue FIFO until the window drains.
	Window int
	// MaxRetries bounds retransmissions per frame; beyond it the frame is
	// abandoned (counted as drop:rel-abandon) — the lease detector, not
	// infinite retry, is the answer to a dead peer.
	MaxRetries int
	// HeartbeatEvery is the idle-link heartbeat (and lease check) period.
	HeartbeatEvery sim.Time
	// LeaseDuration is how long a once-heard neighbor may stay silent before
	// the failure detector declares it down.
	LeaseDuration sim.Time
}

// DefaultConfig returns the tuning used by the harness: RTO in [4, 256]
// ticks starting at 16, window 512, 10 retries, heartbeats every 32 ticks
// with an 8-heartbeat lease.
//
// The window must comfortably exceed the largest per-link protocol burst:
// it exists to bound sender state, not to throttle. A tight window (32)
// turns bootstrap floods at n=256 into queueing delay that outlasts the
// protocols' own timers — they retry into the backlog and livelock. The
// 8-heartbeat lease keeps the spurious-down probability negligible under
// the heaviest swept loss (0.15^8 ≈ 2.6e-7 per window per link) while
// still detecting a real crash within 256 ticks.
func DefaultConfig() Config {
	return Config{
		MinRTO:         4,
		MaxRTO:         256,
		InitialRTO:     16,
		Window:         512,
		MaxRetries:     10,
		HeartbeatEvery: 32,
		LeaseDuration:  256,
	}
}

// Stats aggregates the sublayer's behavior across all links for reports.
type Stats struct {
	Sent        int64 // data frames accepted from protocols
	Retransmits int64 // extra physical transmissions of data frames
	Abandons    int64 // frames dropped after MaxRetries
	Duplicates  int64 // received data frames already delivered (re-ACKed)
	AcksSent    int64
	Heartbeats  int64
	RTTSamples  int64 // valid (Karn) RTT samples absorbed
	LeaseDowns  int64 // neighbor-down verdicts
	LeaseUps    int64 // neighbor-up verdicts
}

// Network is the reliable transport. It implements phys.Transport by
// wrapping a raw *phys.Network, and phys.FailureDetector for lease
// subscriptions. Like the raw network it is single-threaded: everything
// runs inside the embedded engine's event loop.
type Network struct {
	raw   *phys.Network
	cfg   Config
	eps   map[ids.ID]*endpoint
	stats Stats
	free  *pending // records awaiting reuse, linked through pending.next
}

// New wraps a raw physical network. Protocols registered through the
// returned Network get reliable delivery; traffic sent directly on the raw
// network bypasses it (the harness never mixes the two).
func New(raw *phys.Network, cfg Config) *Network {
	if cfg.Window <= 0 {
		cfg.Window = 1
	}
	return &Network{raw: raw, cfg: cfg, eps: make(map[ids.ID]*endpoint)}
}

// Raw returns the wrapped physical network (fault injection and counters
// live there).
func (n *Network) Raw() *phys.Network { return n.raw }

// Config returns the sublayer tuning.
func (n *Network) Config() Config { return n.cfg }

// Stats returns a snapshot of the sublayer's aggregate behavior.
func (n *Network) Stats() Stats { return n.stats }

// Engine returns the underlying event engine.
func (n *Network) Engine() *sim.Engine { return n.raw.Engine() }

// Topology returns the live physical graph.
func (n *Network) Topology() *graph.Graph { return n.raw.Topology() }

// Counters returns the per-kind message accounting of the raw network —
// reliable and raw runs are compared on the same ledger.
func (n *Network) Counters() *phys.Counters { return n.raw.Counters() }

// Tracer returns the raw network's tracer (nil when tracing is off).
func (n *Network) Tracer() trace.Tracer { return n.raw.Tracer() }

// Nodes returns all registered node identifiers in ascending order.
func (n *Network) Nodes() []ids.ID { return n.raw.Nodes() }

// NeighborsOf returns the live physical neighbors of v, ascending.
func (n *Network) NeighborsOf(v ids.ID) []ids.ID { return n.raw.NeighborsOf(v) }

// Up reports whether v is registered and not failed.
func (n *Network) Up(v ids.ID) bool { return n.raw.Up(v) }

// FailNode marks v down on the underlying network.
func (n *Network) FailNode(v ids.ID) { n.raw.FailNode(v) }

// RecoverNode brings a failed node back up on the underlying network.
func (n *Network) RecoverNode(v ids.ID) { n.raw.RecoverNode(v) }

// Register installs the protocol handler for a node and starts the node's
// heartbeat/lease chain. The sublayer interposes its own phys handler; the
// protocol sees only deduplicated, in-window data frames.
func (n *Network) Register(v ids.ID, h phys.Handler) {
	ep, ok := n.eps[v]
	if !ok {
		ep = &endpoint{net: n, self: v}
		n.eps[v] = ep
		n.raw.Register(v, phys.HandlerFunc(ep.handle))
		n.raw.Engine().After(n.cfg.HeartbeatEvery, ep.tick)
	}
	ep.inner = h
}

// SubscribeLeases registers cb for failure-detector verdicts about self's
// physical neighbors (phys.FailureDetector).
func (n *Network) SubscribeLeases(self ids.ID, cb phys.LeaseFunc) {
	ep, ok := n.eps[self]
	if !ok {
		// Subscribing before Register is a harness bug worth failing loudly
		// on: the endpoint's handler wiring would silently never exist.
		panic(fmt.Sprintf("rel: SubscribeLeases(%v) before Register", self))
	}
	ep.leaseCbs = append(ep.leaseCbs, cb)
}

// Send accepts a single-hop frame for reliable delivery. Parity with the
// raw semantics: a sender that is down or has no link to m.To fails
// immediately ("drop:no-link"); otherwise the frame is sequenced and either
// transmitted or queued behind the in-flight window. Send reports whether
// the frame was accepted, not whether it was (yet) transmitted.
func (n *Network) Send(m phys.Message) bool {
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

// Broadcast reliably sends a frame to every live physical neighbor of from
// and returns the number of frames accepted.
func (n *Network) Broadcast(from ids.ID, kind string, payload any) int {
	sent := 0
	for _, u := range n.raw.NeighborsOf(from) {
		if n.Send(phys.Message{From: from, To: u, Kind: kind, Payload: payload}) {
			sent++
		}
	}
	return sent
}

// endpoint is one node's view of the sublayer: per-peer link state, the
// wrapped protocol handler, and lease subscribers.
type endpoint struct {
	net   *Network
	self  ids.ID
	inner phys.Handler
	// links holds one link per physical neighbour the node has exchanged
	// frames with, ascending by peer; it is short, so link scans it. A new
	// link replaces the slice instead of shifting it in place: a range over
	// links (the lease check, whose callbacks may send) walks the links
	// that existed when it began.
	links []*link

	hbSeq    uint64
	leaseCbs []phys.LeaseFunc
	selfDown bool // observed own crash; re-grant leases on recovery
}

func (ep *endpoint) link(peer ids.ID) *link {
	i := 0
	for ; i < len(ep.links) && ep.links[i].peer <= peer; i++ {
		if ep.links[i].peer == peer {
			return ep.links[i]
		}
	}
	l := &link{
		ep:   ep,
		peer: peer,
		est:  NewRTOEstimator(ep.net.cfg.MinRTO, ep.net.cfg.MaxRTO, ep.net.cfg.InitialRTO),
	}
	ep.links = slices.Concat(ep.links[:i], []*link{l}, ep.links[i:])
	return l
}

// tick is the heartbeat/lease chain: every HeartbeatEvery it broadcasts a
// heartbeat to the live physical neighbors and checks every once-heard
// link's lease. The chain stays scheduled while the node is down (the
// existing down-self idiom) so a recovered node resumes on its own.
func (ep *endpoint) tick() {
	n := ep.net
	eng := n.raw.Engine()
	defer eng.After(n.cfg.HeartbeatEvery, ep.tick)
	if !n.raw.Up(ep.self) {
		ep.selfDown = true
		return
	}
	if ep.selfDown {
		// We just came back from a crash: every lease clock is stale by our
		// entire downtime. Re-grant them all — neighbors that really died
		// while we were deaf expire again within one LeaseDuration, without
		// the recovery storm of declaring everyone down at once.
		ep.selfDown = false
		now := eng.Now()
		for _, l := range ep.links {
			l.lastHeard = now
		}
	}
	ep.hbSeq++
	for _, u := range n.raw.NeighborsOf(ep.self) {
		// Heartbeats ride the raw network unreliably: retransmitting a
		// liveness probe would defeat its purpose, the next tick is the retry.
		if n.raw.Send(phys.Message{From: ep.self, To: u, Kind: HeartbeatKind, Payload: Heartbeat{Seq: ep.hbSeq}}) {
			n.stats.Heartbeats++
		}
	}
	now := eng.Now()
	for _, l := range ep.links {
		if l.heardEver && !l.down && now-l.lastHeard > n.cfg.LeaseDuration {
			l.down = true
			n.stats.LeaseDowns++
			ep.emitLease(l.peer, false)
		}
	}
}

// emitLease traces one failure-detector verdict and notifies subscribers.
func (ep *endpoint) emitLease(peer ids.ID, up bool) {
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

// handle is the endpoint's phys handler: it decodes sublayer framing and
// feeds the protocol only fresh, deduplicated data frames.
func (ep *endpoint) handle(m phys.Message) {
	switch pl := m.Payload.(type) {
	case phys.Garbled:
		// The bits arrived destroyed: liveness evidence, but nothing to
		// decode and — crucially — nothing to ACK; the sender retransmits.
		ep.link(m.From).heard()
	case Frame:
		ep.link(m.From).recvData(m, pl)
	case Ack:
		ep.link(m.From).recvAck(pl)
	case Heartbeat:
		ep.link(m.From).heard()
	default:
		// Not sublayer traffic (a harness layer talking on the raw seam);
		// pass through untouched.
		ep.link(m.From).heard()
		if ep.inner != nil {
			ep.inner.HandleMessage(m)
		}
	}
}

// pending is one unacked data frame on a link's sender side. Records are
// recycled through Network.free, and only by their timer: see fire.
type pending struct {
	timer    sim.Event // the retransmission timer; Fn is p.fire, bound once
	l        *link
	m        phys.Message // original protocol message (pre-wrap)
	seq      uint64
	attempts int // retransmissions so far
	sentAt   sim.Time
	retx     bool // ever retransmitted → Karn: no RTT sample
	retired  bool // out of the window: ACKed, or abandoned
	next     *pending
}

// newPending returns a record for m, reusing a free one if there is one.
func (n *Network) newPending(l *link, m phys.Message) *pending {
	p := n.free
	if p == nil {
		p = new(pending)
		p.timer.Fn = p.fire
	} else {
		n.free = p.next
		p.attempts, p.retx, p.retired = 0, false, false
	}
	p.l, p.m = l, m
	return p
}

// fire is p's retransmission timer. A record's timer is armed from its
// first transmission until a firing that does not re-arm it, so that
// firing is the record's last use and the only place it is recycled: when
// it finds the record retired, and when it abandons the frame.
func (p *pending) fire() {
	if !p.retired && !p.l.retransmit(p) {
		return // re-armed
	}
	n := p.l.ep.net
	p.m.Payload = nil
	p.next, n.free = n.free, p
}

// link holds both directions of one (self, peer) pair: the sender window
// and RTO state for frames to peer, the receiver dedup state for frames
// from peer, and the liveness lease.
type link struct {
	ep   *endpoint
	peer ids.ID

	// sender side. Frames are transmitted in sequence order: sent is the
	// highest sequence number transmitted, window[i] is the record of
	// sequence number lowest()+i — nil once retired, and never nil at i = 0
	// — and live counts the records in flight.
	nextSeq uint64
	sent    uint64
	window  []*pending
	live    int
	queue   []*pending // queue[qhead:] waits for window space
	qhead   int
	est     *RTOEstimator

	// receiver side: every seq ≤ maxRun has been delivered; ahead holds the
	// out-of-order deliveries beyond it, ascending.
	maxRun uint64
	ahead  []uint64

	// lease
	lastHeard sim.Time
	heardEver bool
	down      bool
}

// heard records liveness evidence from the peer and flips a down lease back
// up.
func (l *link) heard() {
	l.lastHeard = l.ep.net.raw.Engine().Now()
	l.heardEver = true
	if l.down {
		l.down = false
		l.ep.net.stats.LeaseUps++
		l.ep.emitLease(l.peer, true)
	}
}

// lowest is the sequence number of window[0].
func (l *link) lowest() uint64 { return l.sent + 1 - uint64(len(l.window)) }

// retire takes the record at window[i], if any, out of flight and returns
// it. The caller trims the window.
func (l *link) retire(i int) *pending {
	p := l.window[i]
	if p != nil {
		l.window[i], p.retired = nil, true
		l.live--
	}
	return p
}

// trim drops the retired records at the front of the window.
func (l *link) trim() {
	k := 0
	for k < len(l.window) && l.window[k] == nil {
		k++
	}
	l.window = slices.Delete(l.window, 0, k)
}

// send sequences a protocol message and transmits it, or queues it behind
// the in-flight window.
func (l *link) send(m phys.Message) {
	l.nextSeq++
	p := l.ep.net.newPending(l, m)
	p.seq = l.nextSeq
	if l.live < l.ep.net.cfg.Window {
		l.transmit(p)
	} else {
		l.queue = append(l.queue, p)
	}
}

// transmit puts p on the air (first attempt) and arms its retransmission
// timer. p.seq is sent+1: the queue holds frames only while the window is
// full.
func (l *link) transmit(p *pending) {
	l.window = append(l.window, p)
	l.live++
	l.sent = p.seq
	p.sentAt = l.ep.net.raw.Engine().Now()
	l.ep.net.raw.Send(phys.Message{
		From: p.m.From, To: p.m.To, Kind: p.m.Kind, Hops: p.m.Hops,
		Payload: Frame{Seq: p.seq, Hops: p.m.Hops, Inner: p.m.Payload},
	})
	l.armTimer(p)
}

// armTimer schedules the retransmission check for p at the link's current
// RTO. Timers are never cancelled — a fired timer whose frame was ACKed (or
// superseded) notices and does nothing, the engine-idiomatic dangling-timer
// pattern. The event is p's own: transmit arms it once, and after that only
// its own firing does, so it is never pending here.
func (l *link) armTimer(p *pending) {
	l.ep.net.raw.Engine().Arm(&p.timer, l.est.RTO())
}

// retransmit handles one expired retransmission timer: back off, re-send,
// or abandon after MaxRetries. It reports whether p was abandoned; otherwise
// its timer is armed again.
func (l *link) retransmit(p *pending) (abandoned bool) {
	n := l.ep.net
	eng := n.raw.Engine()
	if !n.raw.Up(p.m.From) {
		// Down sender: hold the frame without burning attempts; recovery
		// resumes the retry chain (crash/recover churn idiom).
		l.armTimer(p)
		return false
	}
	if p.attempts >= n.cfg.MaxRetries {
		l.retire(int(p.seq - l.lowest()))
		l.trim()
		n.stats.Abandons++
		n.raw.Counters().Inc("drop:rel-abandon", 1)
		if tr := n.raw.Tracer(); tr != nil {
			tr.Emit(trace.Event{
				T: int64(eng.Now()), Type: trace.EvMsgDrop,
				Node: p.m.From, Peer: p.m.To, Kind: p.m.Kind, Aux: "rel-abandon",
			})
		}
		l.pump()
		return true
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
		Payload: Frame{Seq: p.seq, Hops: p.m.Hops, Inner: p.m.Payload},
	})
	l.armTimer(p)
	return false
}

// pump moves queued frames into the freed window space.
func (l *link) pump() {
	for l.qhead < len(l.queue) && l.live < l.ep.net.cfg.Window {
		p := l.queue[l.qhead]
		l.queue[l.qhead] = nil
		l.qhead++
		l.transmit(p)
	}
	if l.qhead == len(l.queue) {
		l.queue, l.qhead = l.queue[:0], 0
	}
}

// recvData processes an incoming data frame: dedup, deliver, ACK.
func (l *link) recvData(m phys.Message, f Frame) {
	n := l.ep.net
	l.heard()
	// Bound the out-of-order buffer against forged/corrupted sequence
	// numbers: an honest sender never runs more than Window unacked frames,
	// so anything far beyond the cumulative mark is garbage. Dropping
	// without an ACK keeps state bounded under fuzz and attack.
	if f.Seq > l.maxRun+uint64(4*n.cfg.Window)+4 {
		n.raw.Counters().Inc("drop:rel-overflow", 1)
		return
	}
	fresh := f.Seq > l.maxRun
	if fresh {
		i, dup := slices.BinarySearch(l.ahead, f.Seq)
		if fresh = !dup; fresh {
			l.ahead = slices.Insert(l.ahead, i, f.Seq)
			k := 0
			for k < len(l.ahead) && l.ahead[k] == l.maxRun+1 {
				l.maxRun++
				k++
			}
			l.ahead = slices.Delete(l.ahead, 0, k)
		}
	}
	if !fresh {
		// Duplicate: the ACK was lost or the retransmission raced it.
		// Re-ACK (below) so the sender stops; never re-deliver.
		n.stats.Duplicates++
		n.raw.Counters().Inc("drop:duplicate", 1)
	}
	// ACKs ride the raw network unreliably; the cumulative mark lets a
	// later ACK retire frames whose own ACK was lost.
	if n.raw.Send(phys.Message{From: m.To, To: m.From, Kind: AckKind, Payload: Ack{Seq: f.Seq, Cum: l.maxRun}}) {
		n.stats.AcksSent++
	}
	if fresh && l.ep.inner != nil {
		// Rebuild the protocol-visible message. Hops reflects protocol
		// forwarding depth (sender's count + this link), not physical
		// retransmissions — stretch must not depend on loss luck.
		l.ep.inner.HandleMessage(phys.Message{
			From: m.From, To: m.To, Kind: m.Kind, Payload: f.Inner, Hops: f.Hops + 1,
		})
	}
}

// recvAck retires in-flight frames and feeds the RTO estimator.
func (l *link) recvAck(a Ack) {
	n := l.ep.net
	l.heard()
	lo := l.lowest()
	if a.Seq >= lo && a.Seq <= l.sent {
		if p := l.retire(int(a.Seq - lo)); p != nil && !p.retx {
			// Karn's rule: only never-retransmitted frames yield unambiguous
			// RTT samples.
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
	// Cumulative retirement: every frame at or below a.Cum has arrived. An
	// ACK pays for the frames it retires, not for the ones still in flight;
	// a forged Cum retires nothing that was not sent.
	if cum := min(a.Cum, l.sent); cum >= lo {
		for i := range l.window[:cum-lo+1] {
			l.retire(i)
		}
	}
	l.trim()
	l.pump()
}
