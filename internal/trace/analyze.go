package trace

// This file is the offline-analysis layer consumed by cmd/tracectl: an
// Analysis folds a stream of events — live from a Tracer or replayed
// through a Scanner — into the convergence verdict and message-economy
// aggregates that the report/diff subcommands render. It never retains
// events, so it composes with Scanner into a constant-memory pipeline.

import (
	"fmt"
	"sort"
	"strconv"
	"strings"
	"sync"
)

// Counter-name prefixes under which a round-level trace can carry its
// message economy as summary EvCounter events (one per kind, emitted at
// the end of a run by the boot harness). Analysis falls back to these when
// a trace has no per-message events, so `tracectl report` works on coarse
// traces too.
const (
	MsgCounterPrefix  = "msgs/"
	DropCounterPrefix = "drops/"
)

// Verdict is the convergence story of one trace, reconstructed from its
// EvProbe samples (and round bookkeeping when present). The convergence
// criterion is the "missing" series — consecutive line edges not yet
// present — when the trace carries it, because legitimate surplus edges
// (route-cache state) keep the scalar distance nonzero on converged SSR
// runs; older traces with only a "distance" series fall back to it.
type Verdict struct {
	Metric        string // series the criterion used: "missing" or "distance"
	Probes        int    // criterion samples seen
	Converged     bool   // criterion series ended at zero
	ConvergedAt   int64  // T of the first sample of the final all-zero suffix (-1: never)
	FinalDistance float64
	Oscillations  int  // criterion samples that regressed upward
	ConnectedAll  bool // connectivity invariant held at every sample
	Rounds        int64
	// Invariant accounting from EvInvariant events (chaos-harness traces):
	// checks seen and checks that reported a violation. Zero on traces
	// without online invariant checking.
	InvariantChecks     int64
	InvariantViolations int64
}

// String renders the verdict as the one-line summary tracectl prints.
func (v Verdict) String() string {
	if v.Probes == 0 {
		return "no probe samples in trace (run with -trace-level round or finer)"
	}
	var b strings.Builder
	if v.Converged {
		fmt.Fprintf(&b, "CONVERGED at round %d", v.ConvergedAt)
	} else {
		fmt.Fprintf(&b, "NOT CONVERGED (final %s %g)", v.Metric, v.FinalDistance)
	}
	fmt.Fprintf(&b, " | metric=%s probes=%d oscillations=%d connectedAll=%v", v.Metric, v.Probes, v.Oscillations, v.ConnectedAll)
	if v.Rounds > 0 {
		fmt.Fprintf(&b, " rounds=%d", v.Rounds)
	}
	if v.InvariantChecks > 0 {
		fmt.Fprintf(&b, " invariants=%d/%d violated", v.InvariantViolations, v.InvariantChecks)
	}
	return b.String()
}

// seriesTrack folds one probe series into the convergence statistics the
// verdict needs: last value, onset of the final all-zero suffix, and
// upward regressions.
type seriesTrack struct {
	have        bool
	n           int
	last        float64
	convergedAt int64 // -1 while the series is nonzero
	osc         int
}

func (st *seriesTrack) add(t int64, v float64) {
	st.n++
	if st.have && v > st.last {
		st.osc++
	}
	if v == 0 {
		if st.convergedAt < 0 {
			st.convergedAt = t
		}
	} else {
		st.convergedAt = -1
	}
	st.last = v
	st.have = true
}

// Analysis aggregates one trace. The zero value is not usable; create
// with NewAnalysis. It implements Tracer, so it can also watch a live run.
type Analysis struct {
	Stats *StatsSink

	mu           sync.Mutex
	events       int64
	firstT       int64
	lastT        int64
	haveT        bool
	distance     seriesTrack
	missing      seriesTrack
	disconnected bool
	// Latest reading of every probe series, stamped with its round, and
	// the round of the newest one: LastProbe reassembles a ProbeSample
	// from the readings that share that round.
	probes map[string]probeReading
	probeT int64

	// Invariant accounting: per-invariant check/violation totals keyed by
	// the EvInvariant event's Kind, plus each invariant's first violation
	// (timestamp and detail) for failure attribution.
	invChecks     map[string]int64
	invViolations map[string]int64
	invFirst      map[string]InvariantViolation

	// Reliable-sublayer accounting (EvRetransmit / EvRtoUpdate /
	// EvLeaseExpire). All zero on raw-transport traces.
	retx       map[string]int64
	maxAttempt float64
	rtoSamples int64
	rtoMin     float64
	rtoMax     float64
	rtoLast    float64
	leaseDowns int64
	leaseUps   int64

	// Profiler accounting (EvSpan + EvShardRound): per-span-kind cost
	// aggregates, per-shard busy time and activation attribution, load
	// imbalance, and allocation/GC deltas. All zero on unprofiled traces
	// (EvShardRound still folds on sharded-executor traces).
	spans        map[string]*spanAgg
	shardBusy    map[int]float64          // shard -> busy ns across all phases
	shardActs    map[string]map[int]int64 // phase -> shard -> activations
	policy       string                   // partition policy stamped by the executor
	policyShards int                      // shard count of the last partition stamp
	policyRounds int64                    // consecutive stamps naming that policy
	imbSum       float64
	imbN         int64
	imbMax       float64
	allocBytes   float64
	mallocs      float64
	gcCycles     float64
}

// probeReading is one probe series' latest value and the round it is from.
type probeReading struct {
	t int64
	v float64
}

// spanAgg accumulates one span kind's cost.
type spanAgg struct {
	count int64
	total float64 // sum of Value (ns for timing spans)
	max   float64
}

// InvariantViolation is the first recorded violation of one invariant.
type InvariantViolation struct {
	Invariant string // EvInvariant Kind
	T         int64  // simulated time of the first violation
	Detail    string // the event's Aux
}

// NewAnalysis returns an empty aggregator.
func NewAnalysis() *Analysis {
	return &Analysis{
		Stats:         NewStatsSink(),
		distance:      seriesTrack{convergedAt: -1},
		missing:       seriesTrack{convergedAt: -1},
		probes:        make(map[string]probeReading),
		invChecks:     make(map[string]int64),
		invViolations: make(map[string]int64),
		invFirst:      make(map[string]InvariantViolation),
		retx:          make(map[string]int64),
		spans:         make(map[string]*spanAgg),
		shardBusy:     make(map[int]float64),
		shardActs:     make(map[string]map[int]int64),
	}
}

// Emit folds one event. Implements Tracer.
func (a *Analysis) Emit(e Event) {
	a.Stats.Emit(e)
	a.mu.Lock()
	defer a.mu.Unlock()
	a.events++
	if !a.haveT || e.T < a.firstT {
		a.firstT = e.T
	}
	if !a.haveT || e.T > a.lastT {
		a.lastT = e.T
	}
	a.haveT = true
	switch e.Type {
	case EvRetransmit:
		a.retx[e.Kind]++
		if e.Value > a.maxAttempt {
			a.maxAttempt = e.Value
		}
	case EvRtoUpdate:
		if a.rtoSamples == 0 || e.Value < a.rtoMin {
			a.rtoMin = e.Value
		}
		if e.Value > a.rtoMax {
			a.rtoMax = e.Value
		}
		a.rtoLast = e.Value
		a.rtoSamples++
	case EvLeaseExpire:
		if e.Aux == "up" {
			a.leaseUps++
		} else {
			a.leaseDowns++
		}
	case EvSpan:
		a.foldSpan(e)
	case EvShardRound:
		// Kind "policy" is the executor's per-round partition stamp
		// (Aux = policy name, Value = shard count); numeric Kinds are
		// per-shard activation attribution.
		if e.Kind == "policy" {
			if e.Aux != a.policy {
				a.policy, a.policyRounds = e.Aux, 0
			}
			a.policyShards = int(e.Value)
			a.policyRounds++
		} else if shard, err := strconv.Atoi(e.Kind); err == nil {
			m := a.shardActs[e.Aux]
			if m == nil {
				m = make(map[int]int64)
				a.shardActs[e.Aux] = m
			}
			m[shard] += int64(e.Value)
		}
	case EvInvariant:
		a.invChecks[e.Kind]++
		if e.Value != 0 {
			a.invViolations[e.Kind]++
			if _, seen := a.invFirst[e.Kind]; !seen {
				a.invFirst[e.Kind] = InvariantViolation{Invariant: e.Kind, T: e.T, Detail: e.Aux}
			}
		}
	case EvProbe:
		a.probes[e.Kind] = probeReading{t: e.T, v: e.Value}
		a.probeT = e.T
		switch e.Kind {
		case "distance":
			a.distance.add(e.T, e.Value)
		case "missing":
			a.missing.add(e.T, e.Value)
		case "connected":
			if e.Value == 0 {
				a.disconnected = true
			}
		}
	}
}

// Probes returns the latest reading of every probe series, by series name.
func (a *Analysis) Probes() map[string]float64 {
	a.mu.Lock()
	defer a.mu.Unlock()
	out := make(map[string]float64, len(a.probes))
	for kind, r := range a.probes {
		out[kind] = r.v
	}
	return out
}

// LastProbe reassembles the newest ProbeSample from the per-metric EvProbe
// events Probe.Observe emits (all sharing one T = round index); ok is false
// before the first probe event. A round that carries the missing/surplus
// decomposition reports it; a round with only the scalar "distance" (older
// traces) parks it in Surplus with Missing zero.
func (a *Analysis) LastProbe() (s ProbeSample, ok bool) {
	a.mu.Lock()
	defer a.mu.Unlock()
	if len(a.probes) == 0 {
		return s, false
	}
	at := func(kind string) (int, bool) {
		r, ok := a.probes[kind]
		return int(r.v), ok && r.t == a.probeT
	}
	s.Round = int(a.probeT)
	missing, hasMissing := at("missing")
	surplus, hasSurplus := at("surplus")
	if hasMissing || hasSurplus {
		s.Missing, s.Surplus = missing, surplus
	} else {
		s.Surplus, _ = at("distance")
	}
	connected, _ := at("connected")
	s.Connected = connected != 0
	s.MultiLeft, _ = at("multi-left")
	s.MultiRight, _ = at("multi-right")
	s.Edges, _ = at("edges")
	return s, true
}

// Events returns how many events were folded in.
func (a *Analysis) Events() int64 {
	a.mu.Lock()
	defer a.mu.Unlock()
	return a.events
}

// TimeSpan returns the smallest and largest timestamps seen.
func (a *Analysis) TimeSpan() (first, last int64) {
	a.mu.Lock()
	defer a.mu.Unlock()
	return a.firstT, a.lastT
}

// Verdict assembles the convergence verdict from the folded probe series,
// judging on "missing" when the trace carries the decomposition and on
// the scalar "distance" otherwise.
func (a *Analysis) Verdict() Verdict {
	a.mu.Lock()
	defer a.mu.Unlock()
	crit, metric := &a.missing, "missing"
	if !a.missing.have {
		crit, metric = &a.distance, "distance"
	}
	v := Verdict{
		Metric:        metric,
		Probes:        crit.n,
		FinalDistance: crit.last,
		Oscillations:  crit.osc,
		ConnectedAll:  !a.disconnected && crit.n > 0,
		ConvergedAt:   crit.convergedAt,
		Rounds:        a.Stats.Rounds(),
	}
	for _, c := range a.invChecks {
		v.InvariantChecks += c
	}
	for _, c := range a.invViolations {
		v.InvariantViolations += c
	}
	v.Converged = crit.have && crit.last == 0
	if !v.Converged {
		v.ConvergedAt = -1
	}
	return v
}

// InvariantReport is the per-invariant check/violation summary of a trace.
type InvariantReport struct {
	Invariant  string
	Checks     int64
	Violations int64
	// First is the earliest violation (zero value when Violations == 0).
	First InvariantViolation
}

// Invariants returns the per-invariant accounting, sorted by name. Empty on
// traces without EvInvariant events.
func (a *Analysis) Invariants() []InvariantReport {
	a.mu.Lock()
	defer a.mu.Unlock()
	out := make([]InvariantReport, 0, len(a.invChecks))
	for kind, checks := range a.invChecks {
		out = append(out, InvariantReport{
			Invariant:  kind,
			Checks:     checks,
			Violations: a.invViolations[kind],
			First:      a.invFirst[kind],
		})
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Invariant < out[j].Invariant })
	return out
}

// RelReport is the reliable-sublayer story of one trace: retransmission
// volume by frame kind, the adaptive-RTO envelope observed across all
// links, and failure-detector verdicts. The zero value means the trace
// carried no sublayer events (a raw-transport run).
type RelReport struct {
	Retransmits []KindTotal // per inner frame kind, descending count
	Total       int64       // all retransmissions
	MaxAttempt  int         // deepest per-frame retry seen
	RTOSamples  int64       // EvRtoUpdate events (valid Karn RTT samples)
	RTOMin      float64
	RTOMax      float64
	RTOLast     float64
	LeaseDowns  int64 // neighbor-down verdicts
	LeaseUps    int64 // neighbor-up verdicts
}

// Empty reports whether the trace carried no reliable-sublayer events.
func (r RelReport) Empty() bool {
	return r.Total == 0 && r.RTOSamples == 0 && r.LeaseDowns == 0 && r.LeaseUps == 0
}

// Rel returns the reliable-sublayer aggregates of the trace.
func (a *Analysis) Rel() RelReport {
	a.mu.Lock()
	defer a.mu.Unlock()
	r := RelReport{
		MaxAttempt: int(a.maxAttempt),
		RTOSamples: a.rtoSamples,
		RTOMin:     a.rtoMin,
		RTOMax:     a.rtoMax,
		RTOLast:    a.rtoLast,
		LeaseDowns: a.leaseDowns,
		LeaseUps:   a.leaseUps,
	}
	for kind, c := range a.retx {
		r.Retransmits = append(r.Retransmits, KindTotal{Kind: kind, Count: c})
		r.Total += c
	}
	sort.Slice(r.Retransmits, func(i, j int) bool {
		if r.Retransmits[i].Count != r.Retransmits[j].Count {
			return r.Retransmits[i].Count > r.Retransmits[j].Count
		}
		return r.Retransmits[i].Kind < r.Retransmits[j].Kind
	})
	return r
}

// Taxonomy returns the per-kind send totals: from per-message events when
// the trace has them, else from "msgs/…" summary counters (coarse traces).
func (a *Analysis) Taxonomy() []KindTotal {
	if tax := a.Stats.MessageTaxonomy(); len(tax) > 0 {
		return tax
	}
	return a.counterTotals(MsgCounterPrefix)
}

// DropTotals returns per-reason loss totals, with the same summary-counter
// fallback as Taxonomy.
func (a *Analysis) DropTotals() []KindTotal {
	if d := a.Stats.Drops(); len(d) > 0 {
		return d
	}
	return a.counterTotals(DropCounterPrefix)
}

// TotalSent sums the taxonomy.
func (a *Analysis) TotalSent() int64 {
	var t int64
	for _, kt := range a.Taxonomy() {
		t += kt.Count
	}
	return t
}

func (a *Analysis) counterTotals(prefix string) []KindTotal {
	var out []KindTotal
	for _, kt := range a.Stats.Counters() {
		if strings.HasPrefix(kt.Kind, prefix) {
			out = append(out, KindTotal{Kind: strings.TrimPrefix(kt.Kind, prefix), Count: kt.Count})
		}
	}
	return out
}

// foldSpan folds one EvSpan event. Caller holds a.mu.
func (a *Analysis) foldSpan(e Event) {
	switch {
	case strings.HasPrefix(e.Kind, "shard/"):
		// Per-shard spans are attributed to their shard, not aggregated by kind.
		if shard, err := strconv.Atoi(e.Aux); err == nil {
			a.shardBusy[shard] += e.Value
		}
	case e.Kind == "imbalance":
		a.imbSum += e.Value
		a.imbN++
		if e.Value > a.imbMax {
			a.imbMax = e.Value
		}
	case e.Kind == "allocs":
		a.allocBytes += e.Value
	case e.Kind == "mallocs":
		a.mallocs += e.Value
	case e.Kind == "gc":
		a.gcCycles += e.Value
	default:
		ag := a.spans[e.Kind]
		if ag == nil {
			ag = &spanAgg{}
			a.spans[e.Kind] = ag
		}
		ag.count++
		ag.total += e.Value
		if e.Value > ag.max {
			ag.max = e.Value
		}
	}
}

// SpanTotal is one span kind's aggregate cost over a trace.
type SpanTotal struct {
	Name    string
	Count   int64
	TotalNs float64
	MaxNs   float64
}

// ShardPerf is one shard's cost-attribution row: wall time spent inside
// the shard's parallel-phase work plus its activation counts by phase
// ("propose" for Jacobi, "interior"/"boundary" for the atomic variants).
type ShardPerf struct {
	Shard       int
	BusyNs      float64
	Activations map[string]int64
}

// PerfReport is the performance story of one trace, reconstructed from the
// profiler's EvSpan side channel and the executor's EvShardRound
// accounting. The zero value means the trace carried neither.
type PerfReport struct {
	Spans  []SpanTotal // timing spans, sorted by name
	Shards []ShardPerf // sorted by shard index
	Rounds int64

	// Policy is the partition policy the sharded executor stamped into the
	// trace ("" on traces predating the stamp or without the executor);
	// PolicyShards is the shard count of the last stamp and PolicyRounds
	// the number of consecutive rounds stamped with that policy.
	Policy       string
	PolicyShards int
	PolicyRounds int64

	ImbalanceMean float64 // mean over rounds of max/mean parallel shard busy
	ImbalanceMax  float64

	AllocBytes float64 // heap bytes allocated across the run
	Mallocs    float64
	GCCycles   float64
}

// Empty reports whether the trace carried no profiler or shard accounting.
func (p PerfReport) Empty() bool { return len(p.Spans) == 0 && len(p.Shards) == 0 }

// parallelSpan reports whether a phase span names work done inside the
// parallel phases of the sharded executor — including the conflict-free
// boundary waves, which execute their picks through the worker pool
// (everything else — begin, finish, end, snapshot rebuilds — is the
// sequential share).
func parallelSpan(name string) bool {
	return name == "phase/prepare" || name == "phase/execute" || name == "phase/waves"
}

// SeqNs returns the wall time spent in the sequential share of the rounds.
func (p PerfReport) SeqNs() float64 { return p.spanNs(false) }

// ParNs returns the wall time spent in the parallel phases.
func (p PerfReport) ParNs() float64 { return p.spanNs(true) }

func (p PerfReport) spanNs(parallel bool) float64 {
	var t float64
	for _, s := range p.Spans {
		if parallelSpan(s.Name) == parallel {
			t += s.TotalNs
		}
	}
	return t
}

// SeqShare returns the sequential fraction of the measured round time.
func (p PerfReport) SeqShare() float64 {
	seq, par := p.SeqNs(), p.ParNs()
	if seq+par <= 0 {
		return 0
	}
	return seq / (seq + par)
}

// Perf returns the performance aggregates of the trace.
func (a *Analysis) Perf() PerfReport {
	a.mu.Lock()
	defer a.mu.Unlock()
	p := PerfReport{
		ImbalanceMax: a.imbMax,
		AllocBytes:   a.allocBytes,
		Mallocs:      a.mallocs,
		GCCycles:     a.gcCycles,
		Rounds:       a.Stats.Rounds(),
		Policy:       a.policy,
		PolicyShards: a.policyShards,
		PolicyRounds: a.policyRounds,
	}
	if a.imbN > 0 {
		p.ImbalanceMean = a.imbSum / float64(a.imbN)
	}
	for name, ag := range a.spans {
		p.Spans = append(p.Spans, SpanTotal{Name: name, Count: ag.count, TotalNs: ag.total, MaxNs: ag.max})
	}
	sort.Slice(p.Spans, func(i, j int) bool { return p.Spans[i].Name < p.Spans[j].Name })
	rows := make(map[int]*ShardPerf, len(a.shardBusy))
	row := func(shard int) *ShardPerf {
		if rows[shard] == nil {
			rows[shard] = &ShardPerf{Shard: shard, Activations: make(map[string]int64)}
		}
		return rows[shard]
	}
	for shard, ns := range a.shardBusy {
		row(shard).BusyNs = ns
	}
	for phase, m := range a.shardActs {
		for shard, c := range m {
			row(shard).Activations[phase] = c
		}
	}
	for _, r := range rows {
		p.Shards = append(p.Shards, *r)
	}
	sort.Slice(p.Shards, func(i, j int) bool { return p.Shards[i].Shard < p.Shards[j].Shard })
	return p
}

// ActivationTotals sums the per-shard activation attribution by phase —
// the boundary-vs-interior imbalance number, trace-wide.
func (p PerfReport) ActivationTotals() map[string]int64 {
	out := make(map[string]int64)
	for _, s := range p.Shards {
		for phase, c := range s.Activations {
			out[phase] += c
		}
	}
	return out
}

// AnalyzeStream drains a Scanner into a fresh Analysis. It returns the
// analysis of everything decoded, alongside the scanner's error if the
// trace was cut short — the partial analysis is still meaningful (the
// crash-recovery read path).
func AnalyzeStream(sc *Scanner) (*Analysis, error) {
	a := NewAnalysis()
	for sc.Scan() {
		a.Emit(sc.Event())
	}
	return a, sc.Err()
}
