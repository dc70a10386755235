package phys

import (
	"repro/internal/ids"
	"repro/internal/sim"
)

// Hello is the payload of a periodic hello beacon. It is empty: original
// VRR piggybacks a representative address on every hello to detect global
// inconsistency, and linearized VRR needs none (E11). A receiver reads only
// who sent it.
type Hello struct{}

// BeaconKind is the counter kind used for hello beacons.
const BeaconKind = "phys:hello"

// missLimit is how many beacon intervals a neighbor may stay silent before
// its entry expires.
const missLimit = 3

// Beaconer periodically broadcasts hello beacons for one node and tracks
// the neighbors heard from. It models VRR's link-layer neighbor discovery;
// entries expire after missLimit beacon intervals without a hello, so a
// neighbor heard again after that is new again.
type Beaconer struct {
	net      Transport
	self     ids.ID
	interval sim.Time

	lastHeard map[ids.ID]sim.Time
	stopped   bool

	// OnNewNeighbor, if set, fires when a neighbor is heard for the first
	// time (or again after expiry).
	OnNewNeighbor func(u ids.ID)
}

// NewBeaconer creates (but does not start) a beaconer for self.
func NewBeaconer(net Transport, self ids.ID, interval sim.Time) *Beaconer {
	return &Beaconer{
		net:       net,
		self:      self,
		interval:  interval,
		lastHeard: make(map[ids.ID]sim.Time),
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
	b.net.Broadcast(b.self, BeaconKind, Hello{})
	b.expire()
	b.net.Engine().After(b.interval, b.tick)
}

func (b *Beaconer) expire() {
	deadline := b.net.Engine().Now() - missLimit*b.interval
	for u, at := range b.lastHeard {
		if at < deadline {
			delete(b.lastHeard, u)
		}
	}
}

// HandleHello processes a received hello beacon. The owning protocol's
// message handler must route BeaconKind messages here.
func (b *Beaconer) HandleHello(m Message) {
	if _, ok := m.Payload.(Hello); !ok {
		return
	}
	_, known := b.lastHeard[m.From]
	b.lastHeard[m.From] = b.net.Engine().Now()
	if !known && b.OnNewNeighbor != nil {
		b.OnNewNeighbor(m.From)
	}
}
