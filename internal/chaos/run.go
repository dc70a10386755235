package chaos

import (
	"fmt"

	"repro/internal/node"
	"repro/internal/phys"
	"repro/internal/sim"
)

// Result is the machine-readable outcome of one (scenario, protocol) run.
type Result struct {
	Scenario string `json:"scenario"`
	Protocol string `json:"protocol,omitempty"` // filled in by the bench harness
	Seed     int64  `json:"seed"`

	Converged      bool     `json:"converged"`
	WarmupOK       bool     `json:"warmup_ok"` // consistent before the first fault
	ConvergedAt    sim.Time `json:"converged_at"`
	LastFaultAt    sim.Time `json:"last_fault_at"`
	ReconvergeTime sim.Time `json:"reconverge_time"` // ConvergedAt - LastFaultAt
	// FirstConsistentAt is the earliest instant global consistency was
	// observed (polled on the check cadence), regardless of later faults
	// breaking it again; -1 if consistency was never reached. For
	// cold-start scenarios this is the headline metric: how long bootstrap
	// took while the fault was already active.
	FirstConsistentAt sim.Time `json:"first_consistent_at"`

	WarmupFrames     int64            `json:"warmup_frames"`
	TotalFrames      int64            `json:"total_frames"`
	FaultPhaseFrames int64            `json:"fault_phase_frames"` // frames after warmup
	Drops            map[string]int64 `json:"drops,omitempty"`

	Checks     int64       `json:"checks"`
	Violations []Violation `json:"violations,omitempty"`
}

// Run replays a compiled schedule against a live network and protocol:
// fault-free warmup to consistency, scheduled faults under the online
// invariant checker (NewChecker's default cadence, grace and pending
// bound), then a final drive back to global consistency within
// node.Budget(n). The protocol must already be running on net (clusters
// start in their constructors); Run stops it before returning.
//
// The engine's RunUntil leaves Now at the last fired event rather than the
// requested deadline, so every phase boundary is pinned with an explicit
// no-op sync event — otherwise the schedule's absolute action times would
// drift relative to the phases.
func Run(scn Scenario, sched *Schedule, net *phys.Network, proto node.Protocol) Result {
	eng := net.Engine()
	res := Result{Scenario: scn.Name, Seed: sched.Seed, LastFaultAt: sched.LastFault, FirstConsistentAt: -1}
	deadline := node.Budget(len(net.Nodes()))
	settleEnd := sched.LastFault + scn.Settle

	// Cold-start scenarios (Transport: reliable) may carry actions before
	// the warmup boundary; those must be live while the protocol
	// bootstraps, so schedule them — and create the checker they report to —
	// before phase 1 runs. The checker's periodic chain still starts at the
	// warmup boundary; only its fault-window and down-node bookkeeping is
	// fed early.
	checker := NewChecker(net, proto, 0, 0, 0)
	for _, a := range sched.Actions {
		if a.At >= scn.Warmup {
			continue
		}
		act := a
		eng.At(act.At, func() { apply(act, net, checker) })
	}

	// Poll instantaneous consistency on the check cadence from the start,
	// recording the first instant it holds. The chain retires itself at the
	// settle boundary; phase 3's convergence drive covers the tail.
	every := checker.every
	var poll func()
	poll = func() {
		if res.FirstConsistentAt >= 0 {
			return
		}
		if proto.Consistent() {
			res.FirstConsistentAt = eng.Now()
			return
		}
		if eng.Now()+every <= settleEnd {
			eng.After(every, poll)
		}
	}
	eng.After(every, poll)

	// Phase 1: warmup. Fault-free unless the scenario scheduled cold-start
	// actions above. The protocol bootstraps to consistency (recorded, not
	// enforced — the reconvergence verdict at the end is the acceptance
	// criterion) and the clock is pinned to the warmup boundary.
	_, res.WarmupOK = proto.RunUntilConsistent(scn.Warmup)
	eng.At(scn.Warmup, func() {})
	eng.RunUntil(scn.Warmup, nil)
	res.WarmupFrames = net.Counters().Total()

	// Phase 2: schedule the remaining actions and let them play out under
	// the checker.
	checker.Start()
	for _, a := range sched.Actions {
		if a.At < scn.Warmup {
			continue
		}
		act := a
		eng.At(act.At, func() { apply(act, net, checker) })
	}
	eng.At(settleEnd, func() {})
	eng.RunUntil(settleEnd, nil)

	// Phase 3: drive back to global consistency and record the verdict as
	// the final invariant.
	res.ConvergedAt, res.Converged = proto.RunUntilConsistent(deadline)
	checker.Final(res.Converged, res.ConvergedAt)
	checker.Stop()
	proto.Stop()

	if res.Converged && res.ConvergedAt > res.LastFaultAt {
		res.ReconvergeTime = res.ConvergedAt - res.LastFaultAt
	}
	if res.FirstConsistentAt < 0 && res.Converged {
		res.FirstConsistentAt = res.ConvergedAt
	}
	res.TotalFrames = net.Counters().Total()
	res.FaultPhaseFrames = res.TotalFrames - res.WarmupFrames
	res.Drops = make(map[string]int64)
	for _, kc := range net.Counters().Drops() {
		res.Drops[kc.Kind] = kc.Count
	}
	res.Checks = checker.TotalChecks()
	res.Violations = checker.Violations()
	return res
}

func apply(a Action, net *phys.Network, checker *Checker) {
	switch a.Kind {
	case ActSetLoss:
		net.SetLoss(a.Prob)
	case ActSetJitter:
		net.SetJitter(a.Jitter)
	case ActSetCorrupt:
		net.SetCorruption(a.Prob)
	case ActCutLink:
		net.RemoveLink(a.U, a.V)
	case ActHealLink:
		net.AddLink(a.U, a.V)
	case ActKill:
		net.FailNode(a.Node)
		checker.NoteDown(a.Node)
	case ActRecover:
		net.RecoverNode(a.Node)
		checker.NoteUp(a.Node)
	case ActFaultBegin:
		checker.FaultBegin()
	case ActFaultEnd:
		checker.FaultEnd()
	default:
		panic(fmt.Sprintf("chaos: unknown action kind %q", a.Kind))
	}
}
