package phys

import (
	"repro/internal/ids"
	"repro/internal/sim"
)

// Hello is the payload of a periodic hello beacon. VRR-style protocols
// piggyback the address of the current representative on these beacons to
// detect global inconsistency; every beacon carries it, and the linearized
// variants never act on it.
type Hello struct {
	// Representative is the largest node address the sender has heard of
	// (VRR's flooding-equivalent consistency mechanism).
	Representative ids.ID
	// Seq numbers beacons so receivers can expire stale neighbor entries.
	Seq uint64
}

// BeaconKind is the counter kind used for hello beacons.
const BeaconKind = "phys:hello"

// Beaconer periodically broadcasts hello beacons for one node and tracks
// the neighbors heard from. It models VRR's link-layer neighbor discovery;
// entries expire after MissLimit beacon intervals without a hello.
type Beaconer struct {
	net      Transport
	self     ids.ID
	interval sim.Time
	// MissLimit is how many intervals a neighbor may stay silent before it
	// is expired (default 3).
	MissLimit int

	seq       uint64
	lastHeard map[ids.ID]sim.Time
	repr      ids.ID // largest representative heard, including self
	stopped   bool

	// OnNewNeighbor, if set, fires when a neighbor is heard for the first
	// time (or again after expiry).
	OnNewNeighbor func(u ids.ID)
	// OnLostNeighbor, if set, fires when a neighbor entry expires.
	OnLostNeighbor func(u ids.ID)
}

// NewBeaconer creates (but does not start) a beaconer for self.
func NewBeaconer(net Transport, self ids.ID, interval sim.Time) *Beaconer {
	return &Beaconer{
		net:       net,
		self:      self,
		interval:  interval,
		MissLimit: 3,
		lastHeard: make(map[ids.ID]sim.Time),
		repr:      self,
	}
}

// Start begins periodic beaconing. The first beacon goes out after one
// interval (nodes typically jitter their start by scheduling Start itself).
func (b *Beaconer) Start() {
	b.net.Engine().After(b.interval, b.tick)
}

// Stop halts beaconing after the current tick.
func (b *Beaconer) Stop() { b.stopped = true }

func (b *Beaconer) tick() {
	if b.stopped {
		return
	}
	if !b.net.Up(b.self) {
		// A down radio sends no beacons but the chain stays scheduled, so a
		// recovered node resumes hello traffic (crash/recover churn).
		b.net.Engine().After(b.interval, b.tick)
		return
	}
	b.seq++
	b.net.Broadcast(b.self, BeaconKind, Hello{Representative: b.repr, Seq: b.seq})
	b.expire()
	b.net.Engine().After(b.interval, b.tick)
}

func (b *Beaconer) expire() {
	deadline := b.net.Engine().Now() - sim.Time(b.MissLimit)*b.interval
	for u, at := range b.lastHeard {
		if at < deadline {
			delete(b.lastHeard, u)
			if b.OnLostNeighbor != nil {
				b.OnLostNeighbor(u)
			}
		}
	}
}

// HandleHello processes a received hello beacon. The owning protocol's
// message handler must route BeaconKind messages here.
func (b *Beaconer) HandleHello(m Message) {
	hello, ok := m.Payload.(Hello)
	if !ok {
		return
	}
	_, known := b.lastHeard[m.From]
	b.lastHeard[m.From] = b.net.Engine().Now()
	if !known && b.OnNewNeighbor != nil {
		b.OnNewNeighbor(m.From)
	}
	// Adopt a larger representative (VRR consistency piggyback). The sender
	// itself is also a representative candidate.
	cand := hello.Representative
	if m.From > cand {
		cand = m.From
	}
	if cand > b.repr {
		b.repr = cand
	}
}

// Neighbors returns the currently known live neighbors in ascending order.
func (b *Beaconer) Neighbors() []ids.ID {
	out := make([]ids.ID, 0, len(b.lastHeard))
	for u := range b.lastHeard {
		out = append(out, u)
	}
	ids.SortAsc(out)
	return out
}

// Representative returns the largest address heard so far (at least self).
func (b *Beaconer) Representative() ids.ID { return b.repr }
