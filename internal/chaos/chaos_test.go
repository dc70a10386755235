package chaos

import (
	"strings"
	"testing"

	"repro/internal/cache"
	"repro/internal/floodboot"
	"repro/internal/graph"
	"repro/internal/ids"
	"repro/internal/isprp"
	"repro/internal/phys"
	"repro/internal/rel"
	"repro/internal/sim"
	"repro/internal/ssr"
	"repro/internal/trace"
	"repro/internal/vrr"
)

func ring(n int) *graph.Graph {
	nodes := make([]ids.ID, n)
	for i := range nodes {
		nodes[i] = ids.ID(10 * (i + 1))
	}
	return graph.Ring(nodes)
}

func TestScheduleByteIdenticalForSameSeed(t *testing.T) {
	// The acceptance criterion: the same (scenario, topology, seed) triple
	// must render byte-identical schedules, run after run, so every
	// protocol faces exactly the same adversity.
	topo := ring(16)
	for _, scn := range Suite() {
		a, err := Compile(scn, topo, 42)
		if err != nil {
			t.Fatalf("%s: %v", scn.Name, err)
		}
		b, err := Compile(scn, topo, 42)
		if err != nil {
			t.Fatalf("%s: %v", scn.Name, err)
		}
		if a.String() != b.String() {
			t.Errorf("%s: same seed produced different schedules:\n%s\nvs\n%s",
				scn.Name, a, b)
		}
	}
}

func TestScheduleSeedChangesRandomizedFaults(t *testing.T) {
	// Churn victims and partition sides come from the schedule RNG, so a
	// different seed must (on a symmetric ring, where every node is a
	// candidate) be able to produce a different schedule. Probe a few
	// seeds: at least one must differ from seed 1.
	topo := ring(16)
	scn := Scenario{Name: "churn", Warmup: 256, Settle: 256, Faults: []FaultSpec{
		{Kind: Churn, Start: 256, Duration: 1024, Victims: 2, Downtime: 256},
	}}
	base, err := Compile(scn, topo, 1)
	if err != nil {
		t.Fatal(err)
	}
	for seed := int64(2); seed < 8; seed++ {
		s, err := Compile(scn, topo, seed)
		if err != nil {
			t.Fatal(err)
		}
		if s.String() != base.String() {
			return
		}
	}
	t.Error("six different seeds all drew the identical churn schedule")
}

func TestCompileValidation(t *testing.T) {
	topo := ring(8)
	cases := []struct {
		name string
		scn  Scenario
	}{
		{"fault before warmup", Scenario{Warmup: 1024, Faults: []FaultSpec{
			{Kind: LossBurst, Start: 512, Duration: 256, Prob: 0.5}}}},
		{"non-positive duration", Scenario{Warmup: 0, Faults: []FaultSpec{
			{Kind: LossBurst, Start: 0, Duration: 0, Prob: 0.5}}}},
		{"churn downtime exceeds slot", Scenario{Warmup: 0, Faults: []FaultSpec{
			{Kind: Churn, Start: 0, Duration: 512, Victims: 2, Downtime: 400}}}},
		{"unknown kind", Scenario{Warmup: 0, Faults: []FaultSpec{
			{Kind: "meteor", Start: 0, Duration: 64}}}},
	}
	for _, tc := range cases {
		if _, err := Compile(tc.scn, topo, 1); err == nil {
			t.Errorf("%s: Compile accepted an invalid scenario", tc.name)
		}
	}
}

func TestChurnVictimsKeepTopologyConnected(t *testing.T) {
	// On a line only the endpoints are removable without a split; the
	// victim draw must respect that regardless of shuffle order.
	var nodes []ids.ID
	for i := 1; i <= 8; i++ {
		nodes = append(nodes, ids.ID(i))
	}
	topo := graph.Line(nodes)
	for seed := int64(1); seed <= 10; seed++ {
		sched, err := Compile(Scenario{Name: "churn", Faults: []FaultSpec{
			{Kind: Churn, Start: 0, Duration: 512, Victims: 2, Downtime: 128},
		}}, topo, seed)
		if err != nil {
			t.Fatal(err)
		}
		for _, a := range sched.Actions {
			if a.Kind == ActKill && a.Node != 1 && a.Node != 8 {
				t.Errorf("seed %d: interior node %s chosen as churn victim", seed, a.Node)
			}
		}
	}
}

// memSink collects emitted trace events for assertions.
type memSink struct{ events []trace.Event }

func (m *memSink) Emit(e trace.Event) { m.events = append(m.events, e) }

// brokenProto violates every auditable invariant at once: its virtual
// graph has no edges, its pending table is unbounded and its route cache
// reports loops.
type brokenProto struct{ nodes []ids.ID }

func (b *brokenProto) VirtualGraph() *graph.Graph {
	g := graph.New()
	for _, v := range b.nodes {
		g.AddNode(v)
	}
	return g
}
func (b *brokenProto) AttachProbe(*trace.Probe, sim.Time)           {}
func (b *brokenProto) Consistent() bool                             { return false }
func (b *brokenProto) RunUntilConsistent(sim.Time) (sim.Time, bool) { return 0, false }
func (b *brokenProto) Stop()                                        {}
func (b *brokenProto) PendingOps() int                              { return 1 << 20 }
func (b *brokenProto) AuditRoutes() (total, looped int)             { return 5, 2 }

func TestCheckerFlagsBrokenProtocol(t *testing.T) {
	topo := ring(4)
	sink := &memSink{}
	net := phys.NewNetwork(sim.NewEngine(1), topo, phys.WithTracer(sink))
	for _, v := range topo.Nodes() {
		net.Register(v, phys.HandlerFunc(func(phys.Message) {}))
	}
	proto := &brokenProto{nodes: topo.Nodes()}
	c := NewChecker(net, proto, 16, 1, 0)
	c.Start()
	eng := net.Engine()
	eng.At(100, func() {})
	eng.RunUntil(100, nil)
	c.Stop()

	seen := map[string]bool{}
	for _, v := range c.Violations() {
		seen[v.Invariant] = true
	}
	for _, want := range []string{InvConnectivity, InvPendingBound, InvRouteLoops} {
		if !seen[want] {
			t.Errorf("checker missed the %s violation", want)
		}
	}
	// Every check must have surfaced as an EvInvariant trace event.
	inv := 0
	for _, e := range sink.events {
		if e.Type == trace.EvInvariant {
			inv++
		}
	}
	if int64(inv) != c.TotalChecks() {
		t.Errorf("trace saw %d invariant events, checker performed %d checks", inv, c.TotalChecks())
	}
}

func TestCheckerQuietWindowSuppressesConnectivity(t *testing.T) {
	// While a fault window is open (or within the grace period after it)
	// the connectivity invariant must not fire even if the virtual graph
	// is in pieces.
	topo := ring(4)
	net := phys.NewNetwork(sim.NewEngine(1), topo)
	for _, v := range topo.Nodes() {
		net.Register(v, phys.HandlerFunc(func(phys.Message) {}))
	}
	proto := &brokenProto{nodes: topo.Nodes()}
	c := NewChecker(net, proto, 16, 64, 1<<30) // huge pending bound: isolate connectivity
	c.FaultBegin()
	c.Start()
	eng := net.Engine()
	eng.At(100, func() {})
	eng.RunUntil(100, nil)
	for _, v := range c.Violations() {
		if v.Invariant == InvConnectivity {
			t.Fatal("connectivity fired inside an open fault window")
		}
	}
	// Close the window: after the grace period the violation must appear.
	c.FaultEnd()
	eng.At(400, func() {})
	eng.RunUntil(400, nil)
	c.Stop()
	found := false
	for _, v := range c.Violations() {
		if v.Invariant == InvConnectivity {
			found = true
		}
	}
	if !found {
		t.Fatal("connectivity never fired after the fault window closed")
	}
}

func runSSR(t *testing.T, scnName string, seed int64) Result {
	t.Helper()
	var scn Scenario
	for _, s := range Suite() {
		if s.Name == scnName {
			scn = s
		}
	}
	if scn.Name == "" {
		t.Fatalf("scenario %q not in suite", scnName)
	}
	topo := ring(12)
	sched, err := Compile(scn, topo, seed)
	if err != nil {
		t.Fatal(err)
	}
	net := phys.NewNetwork(sim.NewEngine(seed), topo)
	cl := ssr.NewCluster(net, ssr.Config{CacheMode: cache.Bounded})
	return Run(scn, sched, net, cl, RunConfig{})
}

func TestRunSSRLossBurstCleanly(t *testing.T) {
	res := runSSR(t, "loss-burst", 3)
	if !res.WarmupOK {
		t.Error("SSR did not bootstrap during the fault-free warmup")
	}
	if !res.Converged {
		t.Fatalf("SSR did not reconverge after the loss burst (last fault t=%d)", int64(res.LastFaultAt))
	}
	if len(res.Violations) != 0 {
		t.Fatalf("invariant violations under loss burst: %+v", res.Violations)
	}
	if res.Checks == 0 {
		t.Error("checker performed no checks")
	}
	if res.Drops["loss"] == 0 {
		t.Error("a 30% loss burst dropped no frames?")
	}
}

func TestRunSSRChurnReconverges(t *testing.T) {
	res := runSSR(t, "churn", 5)
	if !res.Converged {
		t.Fatalf("SSR did not reconverge after churn by deadline")
	}
	if len(res.Violations) != 0 {
		t.Fatalf("invariant violations under churn: %+v", res.Violations)
	}
	if res.Drops["dest-down"] == 0 {
		t.Error("crashing nodes should strand some in-flight frames as dest-down")
	}
	if res.ReconvergeTime <= 0 {
		t.Error("churn recovery should take measurable time")
	}
}

func TestCompileWarmupCheckRespectsTransport(t *testing.T) {
	topo := ring(8)
	scn := Scenario{Name: "cold", Warmup: 1024, Settle: 256, Faults: []FaultSpec{
		{Kind: LossBurst, Start: 0, Duration: 2048, Prob: 0.15},
	}}
	if _, err := Compile(scn, topo, 1); err == nil {
		t.Fatal("Compile accepted a pre-warmup fault on the raw transport")
	}
	scn.Transport = TransportReliable
	sched, err := Compile(scn, topo, 1)
	if err != nil {
		t.Fatalf("Compile rejected a cold-start fault despite Transport: reliable: %v", err)
	}
	if sched.Actions[0].At != 0 {
		t.Fatalf("first action at t=%d, want the loss burst live from t=0", int64(sched.Actions[0].At))
	}
}

// TestColdStartLossBurstReconverges is the regression test for the lifted
// warmup restriction: with the reliable sublayer underneath, every bootstrap
// protocol must reach global consistency even though a 15% loss burst is
// active from t=0 — before a single protocol frame has flown — and must do so
// with zero invariant violations.
func TestColdStartLossBurstReconverges(t *testing.T) {
	scn := Scenario{
		Name: "cold-start-loss", Warmup: 2048, Settle: 1024,
		Transport: TransportReliable,
		Faults: []FaultSpec{
			{Kind: LossBurst, Start: 0, Duration: 4096, Prob: 0.15},
		},
	}
	topo := ring(12)
	sched, err := Compile(scn, topo, 9)
	if err != nil {
		t.Fatal(err)
	}
	protos := []struct {
		name string
		mk   func(tr phys.Transport) Protocol
	}{
		{"linearization", func(tr phys.Transport) Protocol {
			return ssr.NewCluster(tr, ssr.Config{CacheMode: cache.Bounded})
		}},
		{"isprp", func(tr phys.Transport) Protocol {
			return isprp.NewCluster(tr, isprp.Config{EnableFlood: true})
		}},
		{"vrr", func(tr phys.Transport) Protocol {
			return vrr.NewCluster(tr, vrr.Config{CloseRing: true})
		}},
		{"flood", func(tr phys.Transport) Protocol {
			return floodboot.NewCluster(tr)
		}},
	}
	for _, tc := range protos {
		t.Run(tc.name, func(t *testing.T) {
			raw := phys.NewNetwork(sim.NewEngine(9), topo.Clone())
			rn := rel.New(raw, rel.DefaultConfig())
			proto := tc.mk(rn)
			res := Run(scn, sched, raw, proto, RunConfig{})
			if !res.Converged {
				t.Fatalf("%s never reconverged under a t=0 loss burst over reliable transport", tc.name)
			}
			if len(res.Violations) != 0 {
				t.Fatalf("invariant violations: %+v", res.Violations)
			}
			if res.FirstConsistentAt < 0 {
				t.Fatal("consistency poller never observed a consistent instant")
			}
			if res.Drops["loss"] == 0 {
				t.Error("a 15% loss burst from t=0 dropped no frames?")
			}
			if rn.Stats().Retransmits == 0 {
				t.Error("sustained loss provoked zero retransmissions")
			}
		})
	}
}

func TestScheduleStringMentionsEveryAction(t *testing.T) {
	topo := ring(8)
	sched, err := Compile(Suite()[2], topo, 7) // partition-heal
	if err != nil {
		t.Fatal(err)
	}
	s := sched.String()
	for _, needle := range []string{"fault-begin", "cut-link", "heal-link", "fault-end"} {
		if !strings.Contains(s, needle) {
			t.Errorf("schedule rendering lacks %q:\n%s", needle, s)
		}
	}
}
