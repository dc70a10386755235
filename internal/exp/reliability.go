package exp

// This file is the reliability benchmark behind `ssrsim -mode reliability`
// and `make bench-reliability`: cold-start bootstrap under sustained frame
// loss, raw network vs the reliable-delivery sublayer (internal/rel),
// across every registered bootstrap protocol.
//
// Each run replays the same cold-start scenario — a loss burst live from
// t=0, before a single protocol frame has flown, through the warmup and
// beyond — via the chaos runner, so the online invariant checker watches
// every run and the Result carries FirstConsistentAt, the cold-start
// convergence metric. The raw arm is the control: it quantifies what the
// sublayer costs (retransmissions, ACKs, heartbeats) and what it buys
// (convergence where the raw protocols stall or fail outright).

import (
	"fmt"
	"strings"

	"repro/internal/chaos"
	"repro/internal/graph"
	"repro/internal/metrics"
	"repro/internal/node"
	"repro/internal/rel"
	"repro/internal/sim"
)

// reliabilityLosses is the swept loss grid in percent.
var reliabilityLosses = []int{0, 5, 15, 30}

// ReliabilityRun is one (loss, protocol, transport) measurement: the
// runner's record plus the transport arm and the sublayer's ledger.
type ReliabilityRun struct {
	chaos.Result
	Transport string `json:"transport"`
	LossPct   int    `json:"loss_pct"`

	// Sublayer ledger, zero on the raw arm.
	Retransmits int64 `json:"retransmits,omitempty"`
	Abandons    int64 `json:"abandons,omitempty"`
	Duplicates  int64 `json:"duplicates,omitempty"`
	AcksSent    int64 `json:"acks_sent,omitempty"`
	Heartbeats  int64 `json:"heartbeats,omitempty"`

	// OverheadFrames is this reliable run's TotalFrames minus the raw run's
	// at the same (protocol, loss): the physical price of reliability.
	// Zero on the raw arm.
	OverheadFrames int64 `json:"overhead_frames,omitempty"`
}

// ReliabilityCriteria is the acceptance envelope: every reliable-transport
// run converges from cold start — including under the heaviest loss — with
// zero invariant violations.
type ReliabilityCriteria struct {
	ReliableAllConverged bool `json:"reliable_all_converged"`
	ZeroViolations       bool `json:"zero_violations"` // across reliable runs
	Met                  bool `json:"met"`
}

// ReliabilityResult is the machine-readable record behind
// results/BENCH_reliability.json.
type ReliabilityResult struct {
	Meta      Meta                `json:"meta"`
	LossPcts  []int               `json:"loss_pcts"`
	Protocols []string            `json:"protocols"`
	Runs      []ReliabilityRun    `json:"runs"`
	Criteria  ReliabilityCriteria `json:"criteria"`
}

// coldStartScenario builds the per-loss scenario: loss live from t=0
// through twice the warmup, so the entire bootstrap happens under fire.
// It is meant for the reliable transport; replaying it over the raw network
// is the controlled "without the sublayer" arm of the comparison.
func coldStartScenario(pct int) chaos.Scenario {
	const warmup, settle = sim.Time(2048), sim.Time(1024)
	scn := chaos.Scenario{
		Name:   fmt.Sprintf("cold-loss-%02d", pct),
		Warmup: warmup,
		Settle: settle,
	}
	if pct > 0 {
		scn.Faults = []chaos.FaultSpec{{
			Kind: chaos.LossBurst, Start: 0, Duration: 2 * warmup,
			Prob: float64(pct) / 100,
		}}
	}
	return scn
}

// ReliabilityBench sweeps the loss grid over every registered protocol on
// both transports. Quick mode keeps only the 15% point and the reliable
// arm — the CI smoke that proves cold-start convergence under loss without
// waiting out the raw arms' full non-convergence deadlines.
func (h Harness) ReliabilityBench(n int, topo graph.Topology, seed int64, quick bool) (Report, ReliabilityResult, error) {
	losses := reliabilityLosses
	transports := []string{TransportRaw, TransportReliable}
	if quick {
		losses = []int{15}
		transports = []string{TransportReliable}
	}
	protos := ProtocolNames()
	res := ReliabilityResult{
		Meta:     Meta{Schema: metaSchema, Bench: "reliability", Topology: string(topo), Seed: seed, N: n, Transport: strings.Join(transports, "+"), Quick: quick},
		LossPcts: losses, Protocols: protos,
	}
	rep := Report{ID: "E17", Title: fmt.Sprintf("cold-start bootstrap under loss, raw vs reliable transport, n=%d on %s seed=%d", n, topo, seed)}
	tab := metrics.NewTable("loss", "protocol", "transport", "converged", "first consistent", "frames", "retransmits", "abandons", "overhead", "violations")

	baseTopo := topoOrDie(topo, n, seed)
	relConverged, relViolations := true, 0
	for _, pct := range losses {
		scn := coldStartScenario(pct)
		sched, err := chaos.Compile(scn, baseTopo, seed)
		if err != nil {
			return Report{}, ReliabilityResult{}, fmt.Errorf("compile %s: %w", scn.Name, err)
		}
		rawFrames := make(map[string]int64) // protocol -> raw-arm TotalFrames
		for _, transport := range transports {
			for _, name := range protos {
				raw, _ := h.newNet(topo, n, seed) // both arms are built here, whatever -transport says
				var rn *rel.Network
				var proto node.Protocol
				if transport == TransportReliable {
					rn = rel.New(raw, rel.DefaultConfig())
					proto, err = NewBootProtocol(name, rn)
				} else {
					proto, err = NewBootProtocol(name, raw)
				}
				if err != nil {
					return Report{}, ReliabilityResult{}, err
				}
				run := ReliabilityRun{Result: chaos.Run(scn, sched, raw, proto), Transport: transport, LossPct: pct}
				run.Protocol = name
				if rn != nil {
					st := rn.Stats()
					run.Retransmits = st.Retransmits
					run.Abandons = st.Abandons
					run.Duplicates = st.Duplicates
					run.AcksSent = st.AcksSent
					run.Heartbeats = st.Heartbeats
					if base, ok := rawFrames[name]; ok {
						run.OverheadFrames = run.TotalFrames - base
					}
					relConverged = relConverged && run.Converged
					relViolations += len(run.Violations)
				} else {
					rawFrames[name] = run.TotalFrames
				}
				res.Runs = append(res.Runs, run)

				first := "-"
				if run.FirstConsistentAt >= 0 {
					first = fmt.Sprintf("%d", int64(run.FirstConsistentAt))
				}
				tab.AddRow(fmt.Sprintf("%d%%", pct), name, transport, run.Converged,
					first, run.TotalFrames, run.Retransmits, run.Abandons,
					run.OverheadFrames, len(run.Violations))
			}
		}
	}

	res.Criteria = ReliabilityCriteria{
		ReliableAllConverged: relConverged,
		ZeroViolations:       relViolations == 0,
		Met:                  relConverged && relViolations == 0,
	}
	rep.Table = tab
	if !res.Criteria.Met {
		rep.Notes = append(rep.Notes, fmt.Sprintf(
			"CRITERIA NOT MET: reliable all converged=%v, reliable violations=%d",
			relConverged, relViolations))
	}
	rep.Notes = append(rep.Notes, fmt.Sprintf(
		"loss active from t=0 through t=%d; first-consistent is the cold-start convergence instant",
		int64(2*sim.Time(2048))))
	return rep, res, nil
}
