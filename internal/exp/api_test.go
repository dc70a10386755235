package exp

import (
	"flag"
	"hash/fnv"
	"os"
	"reflect"
	"strings"
	"testing"

	"repro/internal/graph"
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
	_, net := newNet(graph.TopoER, 10, 1)
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
			_, net := newNet(graph.TopoER, 12, 3)
			cl, err := NewBootProtocol(name, net)
			if err != nil {
				t.Fatal(err)
			}
			probe := &trace.Probe{}
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
			probe.Observe(probe.Len(), vg) // final sample, as Bootstrap does
			cl.Stop()
			if probe.Len() == 0 {
				t.Error("probe should hold at least the final sample")
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
// moves one frame, one timer or one RNG draw changes a constant here.
//
// The second table hashes the same stream without the E_v events
// (edge-add, edge-delegate, ring-closed). It moves only when the protocol
// does: a change that only adds, drops or renames edge events leaves it
// alone.
func TestProtocolEventStreamPinned(t *testing.T) {
	want := map[string]uint64{
		"flood/raw":              0x61bc2ca6ede74b47,
		"flood/reliable":         0x965313e82bc33c95,
		"isprp/raw":              0xb02be9da60979c9e,
		"isprp/reliable":         0x53c8aa1143767656,
		"linearization/raw":      0x1e62de002cab00a8,
		"linearization/reliable": 0x1e72ca186c6c6787,
		"vrr/raw":                0x1fd676795529f42b,
		"vrr/reliable":           0xb2b85ace202d2d36,
	}
	wantNoEdges := map[string]uint64{
		"flood/raw":              0x61bc2ca6ede74b47,
		"flood/reliable":         0x965313e82bc33c95,
		"isprp/raw":              0xb02be9da60979c9e,
		"isprp/reliable":         0x53c8aa1143767656,
		"linearization/raw":      0xb7251fb2e7049e9a,
		"linearization/reliable": 0x2d39aeaf3744ccbb,
		"vrr/raw":                0x00e5f2f007e35dbd,
		"vrr/reliable":           0xf3148897668efc54,
	}
	defer func(tr trace.Tracer, name string) { tracer, transportName = tr, name }(tracer, transportName)
	for _, name := range ProtocolNames() {
		for _, transport := range []string{TransportRaw, TransportReliable} {
			h, hNoEdges := fnv.New64a(), fnv.New64a()
			sink, sinkNoEdges := trace.NewJSONLWriter(h), trace.NewJSONLWriter(hNoEdges)
			EnableTracing(trace.WithLevel(trace.Tee(sink, withoutEdgeEvents{sinkNoEdges}), trace.LevelMsg))
			if err := SetTransport(transport); err != nil {
				t.Fatal(err)
			}
			if _, err := Bootstrap(name, 48, graph.TopoER, 1, 16); err != nil {
				t.Fatal(err)
			}
			if err := sink.Close(); err != nil {
				t.Fatal(err)
			}
			if err := sinkNoEdges.Close(); err != nil {
				t.Fatal(err)
			}
			key := name + "/" + transport
			if got := h.Sum64(); got != want[key] {
				t.Errorf("%s: event stream hash %#016x (%d events), want %#016x", key, got, sink.Count(), want[key])
			}
			if got := hNoEdges.Sum64(); got != wantNoEdges[key] {
				t.Errorf("%s: hash without E_v events %#016x (%d events), want %#016x", key, got, sinkNoEdges.Count(), wantNoEdges[key])
			}
		}
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

func TestParseSizes(t *testing.T) {
	got, err := ParseSizes(" 100, 200,300 ")
	if err != nil || !reflect.DeepEqual(got, []int{100, 200, 300}) {
		t.Fatalf("ParseSizes = %v, %v", got, err)
	}
	for _, bad := range []string{"", "a", "10,-2", "10,,20"} {
		if _, err := ParseSizes(bad); err == nil {
			t.Errorf("ParseSizes(%q) should fail", bad)
		}
	}
}

// TestSchedulerAblationMatchesCommitted pins the random-sequential daemon's
// draw sequence across executor changes: `ssrsim -mode scheduler` (n=200,
// 3 seeds) must reproduce the committed artifact byte for byte.
func TestSchedulerAblationMatchesCommitted(t *testing.T) {
	want, err := os.ReadFile("../../results/a1_scheduler.txt")
	if err != nil {
		t.Fatal(err)
	}
	if got := SchedulerAblation(200, 3).String() + "\n"; got != string(want) {
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
	if got := MobilityRecovery(24, 1500, 0.02, 3).String() + "\n"; got != string(want) {
		t.Errorf("E12 drifted from results/e12_mobility.txt:\n%s", got)
	}
}

func TestBindCLIDefaults(t *testing.T) {
	fs := flag.NewFlagSet("test", flag.ContinueOnError)
	c := BindCLI(fs, CLIOptions{Modes: "m", DefaultMode: "boot", DefaultSizes: "10,20"})
	if err := fs.Parse([]string{"-workers", "3", "-shards", "8", "-sizes", "40,50"}); err != nil {
		t.Fatal(err)
	}
	if *c.Mode != "boot" || *c.N != 24 || *c.Workers != 3 || *c.Shards != 8 {
		t.Errorf("parsed: mode=%q n=%d workers=%d shards=%d", *c.Mode, *c.N, *c.Workers, *c.Shards)
	}
	if c.Topology() != graph.TopoER {
		t.Errorf("default topology = %q", c.Topology())
	}
	sizes, err := c.SizeList()
	if err != nil || !reflect.DeepEqual(sizes, []int{40, 50}) {
		t.Errorf("SizeList = %v, %v", sizes, err)
	}
}
