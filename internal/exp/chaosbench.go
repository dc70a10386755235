package exp

// This file is the chaos benchmark behind `ssrsim -mode chaos` and
// `make bench-chaos`: it replays the committed chaos scenario suite
// (internal/chaos.Suite) over every registered bootstrap protocol,
// runs the online invariant checker throughout, and records
// time-to-reconverge and message overhead per (scenario, protocol) in
// results/BENCH_chaos.json.
//
// Fairness hinges on determinism: each scenario is compiled once per
// (topology, seed) with the schedule's own RNG, so all four protocols
// face the byte-identical fault sequence; only the protocol under test
// differs between runs. The "calm" scenario is the fault-free reference —
// a protocol's message overhead under a fault is its post-warmup frame
// count minus its own calm-run count, which nets out keepalive baselines.

import (
	"fmt"

	"repro/internal/chaos"
	"repro/internal/graph"
	"repro/internal/metrics"
	"repro/internal/sim"
	"repro/internal/trace"
)

// ChaosRun is one (scenario, protocol) measurement: the runner's record
// plus the overhead relative to the same protocol's calm run.
type ChaosRun struct {
	chaos.Result
	// OverheadFrames is FaultPhaseFrames minus the protocol's calm-run
	// FaultPhaseFrames: the extra messages the faults cost. Zero for the
	// calm runs themselves.
	OverheadFrames int64 `json:"overhead_frames"`
}

// ChaosCriteria is the acceptance envelope the JSON records: every run
// reconverges after its final fault and no invariant check fails.
type ChaosCriteria struct {
	ZeroViolations bool `json:"zero_violations"`
	AllReconverged bool `json:"all_reconverged"`
	Met            bool `json:"met"`
}

// ChaosResult is the machine-readable chaos-bench record.
type ChaosResult struct {
	Meta      Meta          `json:"meta"`
	Bench     string        `json:"bench"`
	Topology  string        `json:"topology"`
	N         int           `json:"n"`
	Seed      int64         `json:"seed"`
	Scenarios []string      `json:"scenarios"`
	Protocols []string      `json:"protocols"`
	Runs      []ChaosRun    `json:"runs"`
	Criteria  ChaosCriteria `json:"criteria"`
}

// chaosScenarios picks the suite for a run; quick mode keeps one fault
// per family out (calm, loss, churn) for the CI smoke.
func chaosScenarios(quick bool) []chaos.Scenario {
	all := chaos.Suite()
	if !quick {
		return all
	}
	var out []chaos.Scenario
	for _, s := range all {
		switch s.Name {
		case "calm", "loss-burst", "churn":
			out = append(out, s)
		}
	}
	return out
}

// ChaosBench replays the scenario suite over every registered protocol.
func (h Harness) ChaosBench(n int, topo graph.Topology, seed int64, quick bool) (Report, ChaosResult, error) {
	scenarios := chaosScenarios(quick)
	protos := ProtocolNames()
	res := ChaosResult{
		Meta:  Meta{Schema: metaSchema, Bench: "chaos", Topology: string(topo), Seed: seed, N: n, Transport: h.transport(), Quick: quick},
		Bench: "chaos", Topology: string(topo), N: n, Seed: seed,
		Protocols: protos,
	}
	for _, s := range scenarios {
		res.Scenarios = append(res.Scenarios, s.Name)
	}
	rep := Report{ID: "E16", Title: fmt.Sprintf("chaos suite on %s graphs, n=%d seed=%d", topo, n, seed)}
	tab := metrics.NewTable("scenario", "protocol", "warmup ok", "reconverged", "reconv time", "frames", "overhead", "drops", "checks", "violations")

	// Compile every schedule once against the shared topology: the same
	// Schedule object drives all four protocols.
	baseTopo := topoOrDie(topo, n, seed)
	scheds := make([]*chaos.Schedule, len(scenarios))
	for i, scn := range scenarios {
		sched, err := chaos.Compile(scn, baseTopo, seed)
		if err != nil {
			return Report{}, ChaosResult{}, fmt.Errorf("compile %s: %w", scn.Name, err)
		}
		scheds[i] = sched
	}

	calmFrames := make(map[string]int64) // protocol -> calm FaultPhaseFrames
	allConverged, totalViolations := true, 0
	for i, scn := range scenarios {
		for _, name := range protos {
			net, tr := h.newNet(topo, n, seed)
			proto, err := NewBootProtocol(name, tr)
			if err != nil {
				return Report{}, ChaosResult{}, err
			}
			if h.Tracer != nil {
				probe := &trace.Probe{Tracer: h.Tracer}
				proto.AttachProbe(probe, 16)
			}
			r := chaos.Run(scn, scheds[i], net, proto, chaos.RunConfig{})
			run := ChaosRun{Result: r}
			run.Protocol = name
			if scn.Name == "calm" {
				calmFrames[name] = r.FaultPhaseFrames
			} else {
				run.OverheadFrames = r.FaultPhaseFrames - calmFrames[name]
			}
			res.Runs = append(res.Runs, run)
			if !r.Converged {
				allConverged = false
			}
			totalViolations += len(r.Violations)

			drops := int64(0)
			for _, c := range r.Drops {
				drops += c
			}
			reconv := "-"
			if r.Converged {
				reconv = fmt.Sprintf("%d", int64(r.ReconvergeTime))
			}
			tab.AddRow(scn.Name, name, r.WarmupOK, r.Converged, reconv,
				r.TotalFrames, run.OverheadFrames, drops, r.Checks, len(r.Violations))
		}
	}

	res.Criteria = ChaosCriteria{
		ZeroViolations: totalViolations == 0,
		AllReconverged: allConverged,
		Met:            totalViolations == 0 && allConverged,
	}
	rep.Table = tab
	if !res.Criteria.Met {
		rep.Notes = append(rep.Notes, fmt.Sprintf(
			"CRITERIA NOT MET: %d invariant violations, all reconverged=%v",
			totalViolations, allConverged))
	}
	deadline := sim.Time(n) * 4096
	rep.Notes = append(rep.Notes, fmt.Sprintf(
		"%d scenarios x %d protocols, shared per-scenario schedules, reconvergence deadline %d",
		len(scenarios), len(protos), int64(deadline)))
	return rep, res, nil
}
