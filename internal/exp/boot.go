package exp

import (
	"fmt"

	"repro/internal/graph"
	"repro/internal/metrics"
	"repro/internal/node"
	"repro/internal/phys"
	"repro/internal/sim"
	"repro/internal/trace"
)

// Bootstrap runs a single bootstrap of one protocol with a convergence
// probe attached — the traced-run producer behind `ssrsim -mode boot`.
// Combined with -trace it writes the JSONL traces that cmd/tracectl
// report/diff consume (the linearization-vs-ISPRP comparison of E6, one
// run at a time).
//
// The protocol is resolved through the protocol registry (NewBootProtocol),
// so every registered bootstrap — linearization, isprp, vrr, flood — gets
// the identical probe/run/teardown treatment.
//
// probeEvery is the sampling interval in engine ticks; each sample is one
// "round" of the trace's convergence series. At the end of the run the
// physical per-kind frame counters are re-emitted as "msgs/…" summary
// counters and the drop counters as "drops/…", so even a round-level trace
// carries the message taxonomy and the loss economy.
func (h Harness) Bootstrap(proto string, n int, topo graph.Topology, seed int64, probeEvery int) (Report, error) {
	rep := Report{ID: "E6c", Title: fmt.Sprintf("single %s bootstrap, n=%d on %s (%s transport)", proto, n, topo, h.transport())}
	net, tr := h.newNet(topo, n, seed)
	cl, err := NewBootProtocol(proto, tr)
	if err != nil {
		return Report{}, err
	}
	// The report's verdict line is the one `tracectl report` prints for the
	// same probe events: both come from trace.Analysis.
	verdict := trace.NewAnalysis()
	probe := &trace.Probe{Tracer: trace.Tee(h.Tracer, verdict)}
	deadline := node.Budget(n)

	cl.AttachProbe(probe, sim.Time(probeEvery))
	at, ok := cl.RunUntilConsistent(deadline)
	// The final post-convergence sample takes the next round number: one
	// past the samples the verdict has folded so far.
	probe.Observe(verdict.Verdict().Probes, cl.VirtualGraph())
	cl.Stop()

	// Re-emit the physical frame economy as summary counters: this is what
	// keeps coarse (round-level) traces analyzable — tracectl's taxonomy
	// and drop totals fall back to these counters when per-message events
	// were filtered.
	if h.Tracer != nil {
		emitCounters(h.Tracer, int64(net.Engine().Now()), net.Counters())
	}

	tab := metrics.NewTable("protocol", "n", "converged", "time", "frames")
	tab.AddRow(proto, n, ok, int64(at), net.Counters().Total())
	rep.Table = tab
	rep.Notes = append(rep.Notes, verdict.Verdict().String())
	return rep, nil
}

// emitCounters emits c as EvCounter events at time t: each sent kind as
// "msgs/<kind>" and each drop reason as "drops/<reason>", the names
// trace.Analysis's Taxonomy and DropTotals fall back to.
func emitCounters(tr trace.Tracer, t int64, c *phys.Counters) {
	emit := func(prefix string, rows []phys.KindCount) {
		for _, kc := range rows {
			tr.Emit(trace.Event{T: t, Type: trace.EvCounter, Kind: prefix + kc.Kind, Value: float64(kc.Count)})
		}
	}
	emit(trace.MsgCounterPrefix, c.Sent())
	emit(trace.DropCounterPrefix, c.Drops())
}
