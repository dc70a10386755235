package exp

import (
	"fmt"

	"repro/internal/graph"
	"repro/internal/metrics"
	"repro/internal/sim"
	"repro/internal/trace"
)

// Bootstrap runs a single bootstrap of one protocol with a convergence
// probe attached — the traced-run producer behind `ssrsim -mode boot`.
// Combined with -trace it writes the JSONL traces that cmd/tracectl
// report/diff consume (the linearization-vs-ISPRP comparison of E6, one
// run at a time); combined with -listen it is the long-running target for
// live /metrics and /probe scraping.
//
// The protocol is resolved through the Protocol registry (NewBootProtocol),
// so every registered bootstrap — linearization, isprp, vrr, flood — gets
// the identical probe/run/teardown treatment.
//
// probeEvery is the sampling interval in engine ticks; each sample is one
// "round" of the trace's convergence series. At the end of the run the
// physical per-kind frame counters are re-emitted as "msgs/…" summary
// counters, so even a round-level trace carries the message taxonomy.
func Bootstrap(proto string, n int, topo graph.Topology, seed int64, probeEvery int) (Report, error) {
	rep := Report{ID: "E6c", Title: fmt.Sprintf("single %s bootstrap, n=%d on %s (%s transport)", proto, n, topo, transportName)}
	net, tr := newNet(topo, n, seed)
	cl, err := NewBootProtocol(proto, tr)
	if err != nil {
		return Report{}, err
	}
	// The report's verdict line is the one `tracectl report` prints for the
	// same probe events: both come from trace.Analysis.
	verdict := trace.NewAnalysis()
	probe := &trace.Probe{Tracer: trace.Tee(tracer, verdict)}
	deadline := sim.Time(n) * 4096

	cl.AttachProbe(probe, sim.Time(probeEvery))
	at, ok := cl.RunUntilConsistent(deadline)
	probe.Observe(probe.Len(), cl.VirtualGraph()) // final post-convergence sample
	cl.Stop()

	// Re-emit the physical frame economy as summary counters: this is what
	// keeps coarse (round-level) traces analyzable — tracectl's taxonomy
	// falls back to msgs/… counters when per-message events were filtered.
	if tracer != nil {
		t := int64(net.Engine().Now())
		for _, kc := range net.Counters().Snapshot() {
			if kc.Count > 0 {
				tracer.Emit(trace.Event{
					T: t, Type: trace.EvCounter,
					Kind: trace.MsgCounterPrefix + kc.Kind, Value: float64(kc.Count),
				})
			}
		}
	}

	tab := metrics.NewTable("protocol", "n", "converged", "time", "frames")
	tab.AddRow(proto, n, ok, int64(at), net.Counters().Total())
	rep.Table = tab
	rep.Notes = append(rep.Notes, verdict.Verdict().String())
	return rep, nil
}
