// Package actors runs linearization with every node as a real goroutine —
// the "natural" Go modeling of a distributed protocol, complementing the
// deterministic discrete-event simulator used by the experiments.
//
// Where package sim proves properties under controlled schedules, this
// package stresses the self-stabilization claim under genuine asynchrony:
// the Go scheduler interleaves node steps arbitrarily, channels reorder
// relative timing, and inboxes are lossy when full (messages are dropped
// rather than blocking, as a real network would). Linearization with
// memory must still converge — §2's self-stabilization means convergence
// from every input graph under every fair schedule — and the tests run
// this under the race detector.
//
// Each node owns its neighbor set exclusively; all cross-node communication
// is message passing (introductions: "this identifier is your neighbor").
// A supervisor snapshots neighbor sets over a request channel, so there is
// no shared mutable state at all.
package actors

import (
	"context"
	"time"

	"repro/internal/graph"
	"repro/internal/ids"
	"repro/internal/vring"
)

// message is an introduction: the receiver learns that Other exists and is
// (now) its virtual neighbor.
type message struct {
	Other ids.ID
}

// snapshotReq asks a node for a copy of its current neighbor set.
type snapshotReq struct {
	reply chan []ids.ID
}

// node is one protocol participant. All fields after construction are
// owned by the node's goroutine.
type node struct {
	id    ids.ID
	inbox chan message
	snap  chan snapshotReq
	nbrs  ids.Set
	peers map[ids.ID]*node // routing table for sends (read-only after start)
}

// System is a running set of node goroutines.
type System struct {
	nodes map[ids.ID]*node
	// TickEvery is the node work period (wall clock).
	TickEvery time.Duration
	// InboxSize bounds each node's mailbox; full mailboxes drop (lossy).
	InboxSize int
}

// New builds a system whose initial neighbor sets mirror the given graph
// (E_v := E_p).
func New(g *graph.Graph) *System {
	s := &System{
		nodes:     make(map[ids.ID]*node, g.NumNodes()),
		TickEvery: 200 * time.Microsecond,
		InboxSize: 256,
	}
	for _, v := range g.Nodes() {
		s.nodes[v] = &node{
			id:   v,
			nbrs: ids.NewSet(g.Neighbors(v)...),
		}
	}
	for _, n := range s.nodes {
		n.peers = s.nodes
	}
	return s
}

// Run starts every node goroutine and polls for convergence (the union of
// neighbor sets embeds the sorted line) until the context ends. It returns
// whether convergence was observed and the final virtual graph snapshot.
func (s *System) Run(ctx context.Context) (bool, *graph.Graph) {
	// The node goroutines live on their own context so the final snapshot
	// can still be collected after the caller's deadline fires; they are
	// cancelled on every return path.
	runCtx, cancel := context.WithCancel(context.Background())
	defer cancel()
	for _, n := range s.nodes {
		n.inbox = make(chan message, s.InboxSize)
		n.snap = make(chan snapshotReq)
	}
	for _, n := range s.nodes {
		go n.loop(runCtx, s.TickEvery)
	}
	poll := time.NewTicker(2 * time.Millisecond)
	defer poll.Stop()
	for {
		select {
		case <-ctx.Done():
			return false, s.Snapshot(context.Background())
		case <-poll.C:
			g := s.Snapshot(context.Background())
			if g != nil && g.SupersetOfLine() {
				return true, g
			}
		}
	}
}

// Snapshot collects every node's neighbor set into one virtual graph. It
// returns nil if the context ends mid-collection.
func (s *System) Snapshot(ctx context.Context) *graph.Graph {
	g := graph.New()
	for v, n := range s.nodes {
		g.AddNode(v)
		req := snapshotReq{reply: make(chan []ids.ID, 1)}
		select {
		case n.snap <- req:
		case <-ctx.Done():
			return nil
		}
		select {
		case nbrs := <-req.reply:
			for _, u := range nbrs {
				g.AddEdge(v, u)
			}
		case <-ctx.Done():
			return nil
		}
	}
	return g
}

// Report diagnoses the line view of a snapshot.
func Report(g *graph.Graph) vring.LineReport { return vring.AnalyzeLine(g) }

// loop is the node goroutine: drain introductions, answer snapshots, and on
// every tick run one linearization-with-memory step over the current
// neighbor set (introduce every consecutive same-side pair to each other).
func (n *node) loop(ctx context.Context, tickEvery time.Duration) {
	tick := time.NewTicker(tickEvery)
	defer tick.Stop()
	for {
		select {
		case <-ctx.Done():
			return
		case m := <-n.inbox:
			if m.Other != n.id {
				n.nbrs.Add(m.Other)
			}
		case req := <-n.snap:
			req.reply <- n.nbrs.Sorted()
		case <-tick.C:
			n.step()
		}
	}
}

// step performs Algorithm 1's chain introductions for both sides: for
// consecutive neighbors a < b on the same side of us, tell a about b and b
// about a. Sends are non-blocking; a full inbox drops the introduction,
// which a later tick retries — self-stabilization tolerates loss.
func (n *node) step() {
	sorted := n.nbrs.Sorted()
	var left, right []ids.ID
	for _, u := range sorted {
		if u < n.id {
			left = append(left, u)
		} else {
			right = append(right, u)
		}
	}
	n.introduceChain(left)
	n.introduceChain(right)
}

func (n *node) introduceChain(side []ids.ID) {
	for i := 0; i+1 < len(side); i++ {
		a, b := side[i], side[i+1]
		n.send(a, message{Other: b})
		n.send(b, message{Other: a})
	}
}

func (n *node) send(to ids.ID, m message) {
	peer, ok := n.peers[to]
	if !ok {
		return
	}
	select {
	case peer.inbox <- m:
	default: // mailbox full: drop (lossy network)
	}
}
