package phys

import (
	"repro/internal/ids"
	"repro/internal/sroute"
)

// SRPacket is a source-routed protocol packet: it travels hop by hop along
// Route, one physical frame per hop. Kind tags the protocol message type
// for accounting (each hop counts one transmission of that kind, so message
// totals reflect real physical cost, as in the E6 experiment).
//
// On the wire a packet is a *SRPacket that Send takes from its network's
// Packets list; every relay advances Hop in place and forwards the same
// pointer, and the courier that ends the packet's life returns it to the
// list. That is safe because a packet is in exactly one frame at a time,
// rel hands each sequence number to the handler once (a retransmission
// carrying the same pointer, even after the packet was reused, is
// discarded before any handler sees it), and corruption replaces the
// payload of the delivered copy, never the packet. A value SRPacket
// payload is not courier traffic.
//
// Aux is a second route the packet carries for its protocol (an SSR
// introduction's other route, or the pair an ack answers). Like Route it
// is copied in at send time into the packet's own buffer, which is reused
// with the packet.
type SRPacket struct {
	Route   sroute.Route
	Aux     sroute.Route
	Hop     int // index of the node currently holding the packet
	Kind    string
	Payload any

	pooled bool      // made by a Packets list, so it may go back on one
	next   *SRPacket // link in Packets.free
}

// Packets is the free list of source-routed packets. A raw Network owns
// one and every Courier on it shares it (rel.Network hands out its raw
// network's), so the list holds at most the network's peak of packets in
// flight, and a packet's route and aux buffers are reused with it. Like
// the network it is single-threaded.
type Packets struct {
	free *SRPacket
}

// get returns a packet from the list, or a new one.
func (l *Packets) get() *SRPacket {
	pkt := l.free
	if pkt == nil {
		return &SRPacket{pooled: true}
	}
	l.free, pkt.next = pkt.next, nil
	return pkt
}

// put returns pkt to the list. A packet the list did not make (a test's or
// a fuzzer's hand-built one) is left to the GC: its routes are not ours to
// write over, and the same pointer may ride several frames, so it could
// end its life more than once.
func (l *Packets) put(pkt *SRPacket) {
	if !pkt.pooled {
		return
	}
	pkt.Payload = nil
	pkt.next, l.free = l.free, pkt
}

// Courier sends and forwards source-routed packets on behalf of one node.
// Protocols embed one Courier per node and pass incoming messages to
// Handle; packets addressed to this node surface through OnDeliver.
//
// The hooks get a value copy of the packet whose Route and Aux are the
// packet's own buffers: a delivered or undeliverable packet goes back on
// the free list when its hook returns, and both are written over by the
// next Send. A hook that keeps either must copy it.
type Courier struct {
	net     Transport
	packets *Packets
	self    ids.ID
	// OnDeliver receives packets whose route terminates at this node.
	OnDeliver func(pkt SRPacket)
	// OnForward, if set, observes packets this node relays (e.g. so SSR can
	// learn routes from forwarded traffic).
	OnForward func(pkt SRPacket)
	// OnUndeliverable, if set, observes packets this node could not relay
	// (next hop not a live physical neighbor).
	OnUndeliverable func(pkt SRPacket)
}

// NewCourier returns a courier for node self on the given transport.
func NewCourier(net Transport, self ids.ID) *Courier {
	return &Courier{net: net, packets: net.Packets(), self: self}
}

// Send launches payload from this node along route (which must start at
// this node). It reports whether the first hop was transmitted. The
// packet carries a copy of route and no Aux.
func (c *Courier) Send(route sroute.Route, kind string, payload any) bool {
	return c.SendAux(route, nil, kind, payload)
}

// SendAux is Send with a copy of aux in the packet's Aux.
func (c *Courier) SendAux(route, aux sroute.Route, kind string, payload any) bool {
	if len(route) < 2 || route.Src() != c.self {
		return false
	}
	pkt := c.packets.get()
	pkt.Route = append(pkt.Route[:0], route...)
	pkt.Aux = append(pkt.Aux[:0], aux...)
	pkt.Hop, pkt.Kind, pkt.Payload = 0, kind, payload
	return c.transmit(pkt)
}

// transmit sends pkt to the next node on its route. A packet that cannot
// go on ends here.
func (c *Courier) transmit(pkt *SRPacket) bool {
	next := pkt.Route[pkt.Hop+1]
	ok := c.net.Send(Message{From: c.self, To: next, Kind: pkt.Kind, Payload: pkt})
	if !ok {
		c.undeliverable(pkt)
	}
	return ok
}

// undeliverable ends pkt's life at this node: the hook sees it, then it
// goes back on the free list.
func (c *Courier) undeliverable(pkt *SRPacket) {
	if c.OnUndeliverable != nil {
		c.OnUndeliverable(*pkt)
	}
	c.packets.put(pkt)
}

// Handle processes an incoming physical frame. It returns true if the frame
// was a source-routed packet (delivered here or forwarded onward); false
// means the frame is not courier traffic and the caller should handle it.
func (c *Courier) Handle(m Message) bool {
	pkt, ok := m.Payload.(*SRPacket)
	if !ok || pkt == nil {
		return false
	}
	pkt.Hop++
	// A well-formed packet arrives with Hop >= 0 (senders start at 0), so
	// anything below 1 after the increment is forged or corrupted — guard
	// before indexing, a negative index would panic.
	if pkt.Hop < 1 || pkt.Hop >= len(pkt.Route) || pkt.Route[pkt.Hop] != c.self {
		// Route corrupted or we moved; drop.
		c.undeliverable(pkt)
		return true
	}
	if pkt.Hop == len(pkt.Route)-1 {
		if c.OnDeliver != nil {
			c.OnDeliver(*pkt)
		}
		c.packets.put(pkt)
		return true
	}
	if c.OnForward != nil {
		c.OnForward(*pkt)
	}
	c.transmit(pkt)
	return true
}
