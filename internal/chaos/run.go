package chaos

import (
	"fmt"

	"repro/internal/node"
	"repro/internal/phys"
	"repro/internal/sim"
)

// Result is the machine-readable outcome of one (scenario, protocol) run.
// One consistency poll, on the checker's cadence from t=0 to the end of
// the run, sets every consistency field.
type Result struct {
	Scenario string `json:"scenario"`
	Protocol string `json:"protocol,omitempty"` // filled in by the bench harness
	Seed     int64  `json:"seed"`

	Converged bool `json:"converged"`
	WarmupOK  bool `json:"warmup_ok"` // consistent at some poll at or before the warmup boundary
	// ConvergedAt is the first poll at or after LastFaultAt from which the
	// ring is consistent at every poll through LastFaultAt + Settle; if it
	// is not consistent at that boundary, the first consistent poll after
	// it. Zero when the run did not converge within node.Budget(n).
	ConvergedAt    sim.Time `json:"converged_at"`
	LastFaultAt    sim.Time `json:"last_fault_at"`
	ReconvergeTime sim.Time `json:"reconverge_time"` // ConvergedAt - LastFaultAt: 0 if no poll after the last fault found the ring broken
	// FirstConsistentAt is the first poll that found the ring consistent,
	// whatever later faults did to it; -1 if no poll ever did. For
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

// Run replays a compiled schedule against a live network and protocol in
// one pass. Actions before the warmup boundary (cold-start faults) are
// queued at once; the rest are queued once every event up to the boundary
// has fired, so each fires after the protocol events already queued for its
// tick, and the invariant checker starts there. A consistency poll runs on
// the checker's cadence from t=0 and ends the run at the first consistent
// poll at or after LastFault + Settle, or at node.Budget(n). The protocol
// must already be running on net (clusters start in their constructors);
// Run stops it before returning.
func Run(scn Scenario, sched *Schedule, net *phys.Network, proto node.Protocol) Result {
	eng := net.Engine()
	res := Result{Scenario: scn.Name, Seed: sched.Seed, LastFaultAt: sched.LastFault, FirstConsistentAt: -1}
	settleEnd := sched.LastFault + scn.Settle
	checker := NewChecker(net, proto)
	queue := func(early bool) {
		for _, a := range sched.Actions {
			if (a.At < scn.Warmup) == early {
				eng.At(a.At, func() { apply(a, net, checker) })
			}
		}
	}

	streak := sim.Time(-1) // first poll of the current consistent run at or after the last fault
	var poll func()
	poll = func() {
		now, ok := eng.Now(), proto.Consistent()
		if !ok {
			streak = -1
		} else {
			if res.FirstConsistentAt < 0 {
				res.FirstConsistentAt = now
			}
			res.WarmupOK = res.WarmupOK || now <= scn.Warmup
			if streak < 0 && now >= sched.LastFault {
				streak = now
			}
		}
		if ok && now >= settleEnd {
			res.Converged, res.ConvergedAt = true, streak
			return
		}
		eng.After(checkEvery, poll)
	}

	queue(true)
	eng.After(checkEvery, poll)
	eng.RunUntil(scn.Warmup, nil)
	res.WarmupFrames = net.Counters().Total()
	checker.Start()
	queue(false)
	eng.RunUntil(node.Budget(len(net.Nodes())), func() bool { return res.Converged })
	checker.Final(res.Converged, eng.Now())
	checker.Stop()
	proto.Stop()

	if res.Converged {
		res.ReconvergeTime = res.ConvergedAt - res.LastFaultAt
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
