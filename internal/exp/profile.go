package exp

// This file is the profiling bench behind `ssrsim -mode profile` and
// `make profile`: it drives each linearization variant on the sharded
// executor with the deterministic-safe span profiler attached, captures
// CPU and heap pprof bundles into results/prof/, and distills the span
// stream into the machine-readable ProfileResult that the CI perf gate
// diffs against its committed baseline (`tracectl bench compare`).
//
// The round-phase/shard attribution answers ROADMAP Open item 1's
// "profile first": per-phase wall time, the Amdahl sequential share, the
// per-round load imbalance, and the interior-vs-boundary activation split
// that explains why the executor's speedup is capped.

import (
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"runtime/pprof"
	"time"

	"repro/internal/benchfmt"
	"repro/internal/graph"
	"repro/internal/linearize"
	"repro/internal/metrics"
	"repro/internal/perf"
	"repro/internal/sim"
	"repro/internal/trace"
)

// ProfilePhase is one span kind's aggregate over a run.
type ProfilePhase struct {
	Phase   string  `json:"phase"`
	Seconds float64 `json:"seconds"`
	Count   int64   `json:"count"`
}

// ProfileRun is one variant's profiled measurement. The activation and
// round fields are machine-independent (pure functions of the shard
// partition) and are what the perf gate judges; the timing fields vary
// with the host and stay informational.
type ProfileRun struct {
	Variant   string `json:"variant"`
	Workers   int    `json:"workers"`
	Shards    int    `json:"shards"`
	Partition string `json:"partition,omitempty"`
	Rounds    int    `json:"rounds"`
	Converged bool   `json:"converged"`

	Seconds          float64        `json:"seconds"`
	Phases           []ProfilePhase `json:"phases"`
	SeqShare         float64        `json:"seq_share"`
	AmdahlCeiling    float64        `json:"amdahl_ceiling"`
	PredictedSpeedup float64        `json:"predicted_speedup"` // at this worker count
	ImbalanceMean    float64        `json:"imbalance_mean"`
	ImbalanceMax     float64        `json:"imbalance_max"`
	AllocBytes       float64        `json:"alloc_bytes"`
	Mallocs          float64        `json:"mallocs"`
	GCCycles         float64        `json:"gc_cycles"`

	InteriorActivations int64   `json:"interior_activations"`
	WaveActivations     int64   `json:"wave_activations"`
	BoundaryActivations int64   `json:"boundary_activations"`
	BoundaryShare       float64 `json:"boundary_share"`

	CPUProfile  string `json:"cpu_profile,omitempty"`
	HeapProfile string `json:"heap_profile,omitempty"`
}

// ProfileResult is the machine-readable profiling record.
type ProfileResult struct {
	Meta       benchfmt.Meta `json:"meta"`
	NumCPU     int           `json:"num_cpu"`
	GoMaxProcs int           `json:"go_max_procs"`
	Runs       []ProfileRun  `json:"runs"`
}

// profileRounds bounds each variant's run: the profiler measures where a
// round's time goes, not convergence, and Pure needs Θ(n) rounds at these
// sizes. Quick mode (the CI gate) tightens everything.
func profileRounds(v linearize.Variant, quick bool) int {
	if quick {
		return 6
	}
	switch v {
	case linearize.Pure:
		return 16
	case linearize.Memory:
		return 48
	default:
		return 96
	}
}

// ProfileBench profiles linearization variants on the sharded executor at
// size n — every variant when only is empty, a single named one otherwise
// (useful for producing a one-variant trace `tracectl perf` can read
// without cross-variant mixing). workers <= 0 means GOMAXPROCS; shards
// <= 0 auto-scales (and stays a pure function of n, so the gated fields
// are machine-independent); partition "" means the contiguous baseline
// policy. When profDir is non-empty, CPU and heap pprof bundles are
// captured per variant; quick skips the captures, keeping the CI gate
// fast and its artifacts out of the tree.
func ProfileBench(n int, topo graph.Topology, workers, shards int, partition string, seed int64, quick bool, profDir, only string) (Report, ProfileResult, error) {
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	variants := linearize.Variants()
	if only != "" {
		variants = variants[:0]
		for _, v := range linearize.Variants() {
			if v.String() == only {
				variants = append(variants, v)
			}
		}
		if len(variants) == 0 {
			return Report{}, ProfileResult{}, fmt.Errorf("unknown variant %q", only)
		}
	}
	// A filtered record gets its own bench name so `tracectl bench
	// compare` refuses to diff it against a full-suite baseline.
	benchName := "profile"
	if only != "" {
		benchName += ":" + only
	}
	meta := benchfmt.NewMeta(benchName)
	meta.Topology, meta.Seed, meta.N = string(topo), seed, n
	meta.Workers, meta.Shards, meta.Quick = workers, shards, quick
	meta.Partition = partition
	res := ProfileResult{
		Meta:       meta,
		NumCPU:     runtime.NumCPU(),
		GoMaxProcs: runtime.GOMAXPROCS(0),
	}
	rep := Report{ID: "E18", Title: fmt.Sprintf("per-phase profiler on %s graphs, n=%d workers=%d seed=%d", topo, n, workers, seed)}
	tab := metrics.NewTable("variant", "rounds", "conv", "wall s", "seq share", "ceiling", "pred", "imbal", "interior", "wave", "boundary", "bnd share")

	capture := profDir != "" && !quick
	if capture {
		if err := os.MkdirAll(profDir, 0o755); err != nil {
			return Report{}, ProfileResult{}, err
		}
	}
	g := topoOrDie(topo, n, seed)
	for _, v := range variants {
		an := trace.NewAnalysis()
		tr := trace.Tee(tracer, an)
		cfg := linearize.Config{
			Variant:   v,
			Scheduler: sim.Synchronous,
			MaxRounds: profileRounds(v, quick),
			CloseRing: true,
			Executor:  sim.ExecutorConfig{Workers: workers, Shards: shards, Partition: partition},
			Tracer:    tr,
			Prof:      perf.New(tr),
		}
		var cpuPath, heapPath string
		if capture {
			cpuPath = filepath.Join(profDir, "cpu_"+v.String()+".pprof")
			f, err := os.Create(cpuPath)
			if err != nil {
				return Report{}, ProfileResult{}, err
			}
			if err := pprof.StartCPUProfile(f); err != nil {
				f.Close()
				return Report{}, ProfileResult{}, fmt.Errorf("cpu profile: %w", err)
			}
			defer f.Close()
		}
		start := time.Now()
		stats, _ := linearize.Run(g, cfg)
		dur := time.Since(start)
		if capture {
			pprof.StopCPUProfile()
			heapPath = filepath.Join(profDir, "heap_"+v.String()+".pprof")
			hf, err := os.Create(heapPath)
			if err != nil {
				return Report{}, ProfileResult{}, err
			}
			runtime.GC()
			if err := pprof.WriteHeapProfile(hf); err != nil {
				hf.Close()
				return Report{}, ProfileResult{}, fmt.Errorf("heap profile: %w", err)
			}
			hf.Close()
		}

		p := an.Perf()
		run := ProfileRun{
			Variant:             v.String(),
			Workers:             stats.Par.Workers,
			Shards:              stats.Par.Shards,
			Partition:           stats.Par.Policy,
			Rounds:              stats.Rounds,
			Converged:           stats.Converged,
			Seconds:             dur.Seconds(),
			SeqShare:            p.SeqShare(),
			AmdahlCeiling:       p.AmdahlCeiling(),
			PredictedSpeedup:    p.SpeedupAt(workers),
			ImbalanceMean:       p.ImbalanceMean,
			ImbalanceMax:        p.ImbalanceMax,
			AllocBytes:          p.AllocBytes,
			Mallocs:             p.Mallocs,
			GCCycles:            p.GCCycles,
			InteriorActivations: stats.Par.InteriorActivations,
			WaveActivations:     stats.Par.WaveActivations,
			BoundaryActivations: stats.Par.BoundaryActivations,
			CPUProfile:          cpuPath,
			HeapProfile:         heapPath,
		}
		// Wave activations are parallel work: only the residual sequential
		// Finish phase counts against the boundary share.
		if total := run.InteriorActivations + run.WaveActivations + run.BoundaryActivations; total > 0 {
			run.BoundaryShare = float64(run.BoundaryActivations) / float64(total)
		}
		for _, s := range p.Spans {
			run.Phases = append(run.Phases, ProfilePhase{Phase: s.Name, Seconds: s.TotalNs / 1e9, Count: s.Count})
		}
		res.Runs = append(res.Runs, run)
		tab.AddRow(run.Variant, run.Rounds, run.Converged,
			fmt.Sprintf("%.3f", run.Seconds), fmt.Sprintf("%.3f", run.SeqShare),
			fmt.Sprintf("%.2fx", run.AmdahlCeiling), fmt.Sprintf("%.2fx", run.PredictedSpeedup),
			fmt.Sprintf("%.2f", run.ImbalanceMean),
			run.InteriorActivations, run.WaveActivations, run.BoundaryActivations, fmt.Sprintf("%.3f", run.BoundaryShare))
	}
	rep.Table = tab
	for _, r := range res.Runs {
		if r.BoundaryShare > 0.5 {
			rep.Notes = append(rep.Notes, fmt.Sprintf(
				"%s: boundary work dominates (%.1f%% of activations) — the sequential Finish phase is the scaling bottleneck (ROADMAP Open item 1)",
				r.Variant, 100*r.BoundaryShare))
		}
	}
	rep.Notes = append(rep.Notes, fmt.Sprintf("num_cpu=%d gomaxprocs=%d", res.NumCPU, res.GoMaxProcs))
	if capture {
		rep.Notes = append(rep.Notes, fmt.Sprintf("pprof bundles in %s (go tool pprof <file>)", profDir))
	}
	return rep, res, nil
}
