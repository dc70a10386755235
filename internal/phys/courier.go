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
// On the wire a packet is a *SRPacket, boxed once by Send; every relay
// advances Hop in place and forwards the same pointer. That is safe because
// a packet is in exactly one frame at a time, rel hands each sequence
// number to the handler once (a retransmission carrying the same pointer is
// discarded before any handler sees it), and corruption replaces the
// payload of the delivered copy, never the packet. A value SRPacket payload
// is not courier traffic.
type SRPacket struct {
	Route   sroute.Route
	Hop     int // index of the node currently holding the packet
	Kind    string
	Payload any
}

// Courier sends and forwards source-routed packets on behalf of one node.
// Protocols embed one Courier per node and pass incoming messages to
// Handle; packets addressed to this node surface through OnDeliver.
type Courier struct {
	net  Transport
	self ids.ID
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
	return &Courier{net: net, self: self}
}

// Send launches payload from this node along route (which must start at
// this node). It reports whether the first hop was transmitted.
func (c *Courier) Send(route sroute.Route, kind string, payload any) bool {
	if len(route) < 2 || route.Src() != c.self {
		return false
	}
	return c.transmit(&SRPacket{Route: route.Clone(), Kind: kind, Payload: payload})
}

// transmit sends pkt to the next node on its route.
func (c *Courier) transmit(pkt *SRPacket) bool {
	next := pkt.Route[pkt.Hop+1]
	ok := c.net.Send(Message{From: c.self, To: next, Kind: pkt.Kind, Payload: pkt})
	if !ok && c.OnUndeliverable != nil {
		c.OnUndeliverable(*pkt)
	}
	return ok
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
		if c.OnUndeliverable != nil {
			c.OnUndeliverable(*pkt)
		}
		return true
	}
	if pkt.Hop == len(pkt.Route)-1 {
		if c.OnDeliver != nil {
			c.OnDeliver(*pkt)
		}
		return true
	}
	if c.OnForward != nil {
		c.OnForward(*pkt)
	}
	c.transmit(pkt)
	return true
}
