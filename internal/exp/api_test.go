package exp

import (
	"fmt"
	"hash/fnv"
	"os"
	"reflect"
	"strings"
	"testing"

	"repro/internal/graph"
	"repro/internal/phys"
	"repro/internal/sim"
	"repro/internal/trace"
)

func TestProtocolNames(t *testing.T) {
	want := []string{"flood", "isprp", "linearization", "vrr"}
	if got := ProtocolNames(); !reflect.DeepEqual(got, want) {
		t.Fatalf("ProtocolNames() = %v, want %v", got, want)
	}
}

func TestNewBootProtocolUnknown(t *testing.T) {
	_, net := Harness{}.newNet(graph.TopoER, 10, 1)
	if _, err := NewBootProtocol("nope", net); err == nil {
		t.Fatal("unknown protocol should error")
	} else if !strings.Contains(err.Error(), "linearization") {
		t.Errorf("error should list the valid names: %v", err)
	}
}

// Every registered protocol must satisfy the full Protocol contract: build,
// probe, run to consistency on a small network, expose a virtual graph, stop.
func TestProtocolContract(t *testing.T) {
	for _, name := range ProtocolNames() {
		t.Run(name, func(t *testing.T) {
			_, net := Harness{}.newNet(graph.TopoER, 12, 3)
			cl, err := NewBootProtocol(name, net)
			if err != nil {
				t.Fatal(err)
			}
			verdict := trace.NewAnalysis()
			probe := &trace.Probe{Tracer: verdict}
			cl.AttachProbe(probe, sim.Time(64))
			at, ok := cl.RunUntilConsistent(12 * 4096)
			if !ok {
				t.Fatalf("%s did not converge by %d", name, 12*4096)
			}
			if at == 0 {
				t.Error("convergence time should be positive")
			}
			vg := cl.VirtualGraph()
			if vg == nil || vg.NumNodes() != 12 {
				t.Fatalf("virtual graph should cover all nodes, got %v", vg)
			}
			probe.Observe(verdict.Verdict().Probes, vg) // final sample, as Bootstrap does
			cl.Stop()
			if last, ok := verdict.LastProbe(); !ok || last.Missing != 0 {
				t.Errorf("the final sample must be folded and show the whole line: %+v (ok=%v)", last, ok)
			}
		})
	}
}

// TestProtocolEventStreamPinned holds every registered protocol, on both
// transports, to the event and not to a table that happens to be
// insensitive: the FNV-64a of the full-level JSONL stream of `ssrsim -mode
// boot -proto P -transport T -n 48 -seed 1 -trace F -trace-level msg` (F's
// bytes, so `cmp` against a trace from another build says the same thing).
// A change to ssr, vrr, isprp, floodboot or the node runtime under them that
// moves one frame or one RNG draw changes a constant here. The trace has no
// line per engine event, so a timer that fires and sends, traces or counts
// nothing moves no hash; the third table pins the engine's event count,
// which it does move.
//
// The second table hashes the same stream without the E_v events
// (edge-add, edge-delegate, ring-closed). It moves only when the protocol
// does: a change that only adds, drops or renames edge events leaves it
// alone.
func TestProtocolEventStreamPinned(t *testing.T) {
	want := map[string]uint64{
		"flood/raw":              0xf85847263184ea62,
		"flood/reliable":         0x8ae0bc788b0d349b,
		"isprp/raw":              0xcd5b41bc58b22038,
		"isprp/reliable":         0x63d80c3f9bdc118b,
		"linearization/raw":      0x2f21e2f3b84db5f8,
		"linearization/reliable": 0x4975ba27cdc877e3,
		"vrr/raw":                0xa43310f613f5b5ce,
		"vrr/reliable":           0x496150c10b9a008a,
	}
	wantNoEdges := map[string]uint64{
		"flood/raw":              0xf85847263184ea62,
		"flood/reliable":         0x8ae0bc788b0d349b,
		"isprp/raw":              0xcd5b41bc58b22038,
		"isprp/reliable":         0x63d80c3f9bdc118b,
		"linearization/raw":      0x560f63df618ce248,
		"linearization/reliable": 0x0a4f1940de5b96b7,
		"vrr/raw":                0x8176a8df7f998920,
		"vrr/reliable":           0xf4be8da16d0e578c,
	}
	wantEvents := map[string]int64{
		"flood/raw":              18336,
		"flood/reliable":         45290,
		"isprp/raw":              8562,
		"isprp/reliable":         29073,
		"linearization/raw":      4752,
		"linearization/reliable": 13789,
		"vrr/raw":                7144,
		"vrr/reliable":           19040,
	}
	for _, name := range ProtocolNames() {
		for _, transport := range []string{TransportRaw, TransportReliable} {
			key := name + "/" + transport
			t.Run(key, func(t *testing.T) {
				t.Parallel()
				h, hNoEdges := fnv.New64a(), fnv.New64a()
				sink, sinkNoEdges := trace.NewJSONLWriter(h), trace.NewJSONLWriter(hNoEdges)
				harness := Harness{
					Tracer:    trace.WithLevel(trace.Tee(sink, withoutEdgeEvents{sinkNoEdges}), trace.LevelMsg),
					Transport: transport,
				}
				_, events, err := harness.bootstrap(name, 48, graph.TopoER, 1, 16)
				if err != nil {
					t.Fatal(err)
				}
				if events != wantEvents[key] {
					t.Errorf("engine events %d, want %d", events, wantEvents[key])
				}
				if err := sink.Close(); err != nil {
					t.Fatal(err)
				}
				if err := sinkNoEdges.Close(); err != nil {
					t.Fatal(err)
				}
				if got := h.Sum64(); got != want[key] {
					t.Errorf("event stream hash %#016x (%d events), want %#016x", got, sink.Count(), want[key])
				}
				if got := hNoEdges.Sum64(); got != wantNoEdges[key] {
					t.Errorf("hash without E_v events %#016x (%d events), want %#016x", got, sinkNoEdges.Count(), wantNoEdges[key])
				}
			})
		}
	}
}

// TestCounterSummaryFolds: the summary counters Bootstrap emits at the end
// of a run fold back into a coarse trace's taxonomy and drop totals, and a
// drop reason is never counted as a sent kind.
func TestCounterSummaryFolds(t *testing.T) {
	c := phys.NewCounters()
	c.Inc("ssr:notify", 3)
	c.Inc("ssr:ack", 2)
	c.Inc("drop:loss", 4)
	a := trace.NewAnalysis()
	emitCounters(a, 7, c)
	const want = "[{ssr:ack 2} {ssr:notify 3}] [{loss 4}] 5"
	if got := fmt.Sprint(a.Taxonomy(), a.DropTotals(), a.TotalSent()); got != want || a.TotalSent() != c.Total() {
		t.Errorf("taxonomy, drops, sent = %s, want %s (Counters.Total %d)", got, want, c.Total())
	}
}

// withoutEdgeEvents passes every event but the E_v ones to its sink.
type withoutEdgeEvents struct{ trace.Tracer }

func (f withoutEdgeEvents) Emit(e trace.Event) {
	switch e.Type {
	case trace.EvEdgeAdd, trace.EvEdgeDelegate, trace.EvRingClosed:
		return
	}
	f.Tracer.Emit(e)
}

// TestSchedulerAblationMatchesCommitted pins the random-sequential daemon's
// draw sequence across executor changes: `ssrsim -mode scheduler` (n=200,
// 3 seeds) must reproduce the committed artifact byte for byte.
func TestSchedulerAblationMatchesCommitted(t *testing.T) {
	want, err := os.ReadFile("../../results/a1_scheduler.txt")
	if err != nil {
		t.Fatal(err)
	}
	if got := (Harness{}).SchedulerAblation(200, 3).String() + "\n"; got != string(want) {
		t.Errorf("A1 drifted from results/a1_scheduler.txt:\n%s", got)
	}
}

// TestMobilityMatchesCommitted pins E12 the same way: `ssrsim -mode mobility
// -n 24` is a function of the seed (waypoints are drawn in id order, not map
// order), so it must reproduce the committed artifact byte for byte.
func TestMobilityMatchesCommitted(t *testing.T) {
	want, err := os.ReadFile("../../results/e12_mobility.txt")
	if err != nil {
		t.Fatal(err)
	}
	if got := (Harness{}).MobilityRecovery(24, 1500, 0.02, 3).String() + "\n"; got != string(want) {
		t.Errorf("E12 drifted from results/e12_mobility.txt:\n%s", got)
	}
}
