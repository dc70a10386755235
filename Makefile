GO ?= go

.PHONY: check build vet staticcheck test race benchmark-check docs-check smoke bench-analyze bench-chaos bench-chaos-quick bench-reliability bench-reliability-quick profile profile-quick perf-gate sweep fuzz-smoke loc clean

# The full gate: what CI (and the tier-1 driver) should run.
check: vet staticcheck build race benchmark-check docs-check

build:
	$(GO) build ./...

vet:
	$(GO) vet ./...

# staticcheck is optional tooling: run it when present, skip (loudly) when
# the box doesn't have it. CI installs it explicitly.
staticcheck:
	@if command -v staticcheck >/dev/null 2>&1; then \
		staticcheck ./...; \
	else \
		echo "staticcheck not installed; skipping (go install honnef.co/go/tools/cmd/staticcheck@latest)"; \
	fi

test:
	$(GO) test ./...

# The second line repeats the test of linearize's concurrency contract
# (one writer per index interval of the engine's dense rows).
race:
	$(GO) test -race ./...
	$(GO) test -race -count=10 -run TestParallelRaceHammer ./internal/linearize/

# benchmark/ is a module of its own that imports repro/internal/...: an
# internal API change can break it with every root gate above green.
benchmark-check:
	$(GO) -C benchmark vet ./...
	$(GO) -C benchmark test ./...

# Every ./cmd/<name> and `-mode <m>` the docs quote must exist, and no
# one-variable range over graph.Neighbors (it yields indices, not ids).
docs-check:
	GO=$(GO) ./scripts/docs-check.sh

# Quick -race pass over the execution models only: the discrete-event
# engine (sim), the message layer (phys) and the reliable sublayer (rel),
# which hand the engine event storage they own, the node runtime (node),
# which owns every protocol's tick chain, SSR with its route cache
# (ssr, cache), whose packets and scratch buffers are reused across hops,
# the trace writer (trace), whose encoder goroutine takes the batches
# Emit fills, and Memory's round (graph, the Jacobi tests of linearize),
# whose parallel Prepare reads the graph.Merger's scratch that Merge
# overwrites after the barrier, are where data races would live.
smoke:
	$(GO) test -race -count=1 ./internal/sim/ ./internal/phys/ ./internal/rel/ ./internal/node/ ./internal/cache/ ./internal/ssr/ ./internal/trace/ ./internal/graph/
	$(GO) test -race -count=1 -run 'TestJacobi' ./internal/linearize/

# Benchmark the tracectl analysis pipeline (Scanner -> Analysis) on a
# synthetic 500k-event trace.
bench-analyze:
	$(GO) test -run '^$$' -bench BenchmarkAnalyzeStream -benchmem ./internal/trace/

# Chaos suite: replay the committed fault scenarios (loss bursts,
# partition+heal, churn, jitter, corruption) over every registered
# bootstrap protocol with the online invariant checker attached. Exits
# non-zero on any invariant violation or missed reconvergence. Writes
# results/BENCH_chaos.json.
bench-chaos:
	$(GO) run ./cmd/ssrsim -mode chaos -n 24 -seed 1 -out results/BENCH_chaos.json

# CI smoke variant: smaller network, one scenario per fault family.
bench-chaos-quick:
	$(GO) run ./cmd/ssrsim -mode chaos -quick -n 16 -seed 1 -out /tmp/BENCH_chaos_quick.json

# Reliability sweep: cold-start bootstrap under sustained loss (0/5/15/30%)
# over every protocol on both the raw network and the reliable-delivery
# sublayer. Exits non-zero unless every reliable-transport run converges
# with zero invariant violations. Writes results/BENCH_reliability.json.
bench-reliability:
	$(GO) run ./cmd/ssrsim -mode reliability -n 24 -seed 1 -out results/BENCH_reliability.json

# CI smoke variant: n=256 at 15% loss, reliable arm only — the cold-start
# convergence claim at scale, without the raw control arms.
bench-reliability-quick:
	$(GO) run ./cmd/ssrsim -mode reliability -quick -n 256 -seed 1 -out /tmp/BENCH_reliability_quick.json

# Per-phase profiler over every linearization variant at n=10k: span
# instrumentation into results/BENCH_profile.json plus CPU/heap pprof
# bundles into results/prof/. `tracectl perf` consumes the -trace output.
profile:
	$(GO) run ./cmd/ssrsim -mode profile -n 10000 -seed 1 -out results/BENCH_profile.json

# CI smoke variant: tight round caps, fixed worker count, no pprof capture.
# These flags must match the committed baseline's meta header exactly, or
# perf-gate's compare refuses the diff. The second arm runs the locality
# partition policy, whose wave-scheduled boundary has its own committed
# baseline (interior/wave/boundary activation split per policy).
profile-quick:
	$(GO) run ./cmd/ssrsim -mode profile -quick -n 10000 -workers 2 -seed 1 -out /tmp/BENCH_profile_quick.json
	$(GO) run ./cmd/ssrsim -mode profile -quick -n 10000 -workers 2 -seed 1 -partition locality -out /tmp/BENCH_profile_quick_locality.json

# The perf-regression gate: rerun the quick profiles and diff the
# machine-independent fields (rounds, activation splits, convergence)
# against the committed baselines — one per partition policy, so a change
# that shifts work between the interior, wave and boundary paths fails the
# gate. Fails on any gated drift.
perf-gate: profile-quick
	$(GO) run ./cmd/tracectl bench compare results/BENCH_profile_quick.json /tmp/BENCH_profile_quick.json
	$(GO) run ./cmd/tracectl bench compare results/BENCH_profile_quick_locality.json /tmp/BENCH_profile_quick_locality.json

# Stall sweep, one test per family, each printing its stall count and the
# seeds that stall: 1000 generator seeds through every round-model variant
# with CloseRing, as generated and with the extremal nodes linked (must be
# 0); VRR on `regular` n=64, 1000 seeds (at most 3); SSR on `unitdisk`
# n=192 with Bounded caches and BothDirections, 400 seeds (at most 2). A
# test fails above its count (ROADMAP item 1). About 2 min in all.
sweep:
	$(GO) test -count=1 -run 'TestCloseRingSweep$$' -v ./internal/linearize/ ./internal/vrr/ ./internal/ssr/

# Short native-fuzz pass over the frame-decoding, linearize-step,
# trace-encoding, graph-mutation, event-order, network-script,
# cache-script and trace-writer-script targets
# (one -fuzz run per target; Go allows a single fuzz target per
# invocation). The committed corpora under testdata/fuzz replay in plain
# `go test` as well.
fuzz-smoke:
	$(GO) test -run=^$$ -fuzz=FuzzFramePayloadDecoding -fuzztime=10s ./internal/ssr/
	$(GO) test -run=^$$ -fuzz=FuzzRouteOps -fuzztime=10s ./internal/sroute/
	$(GO) test -run=^$$ -fuzz=FuzzLinearizeStep -fuzztime=10s ./internal/linearize/
	$(GO) test -run=^$$ -fuzz=FuzzRelFrameDecoding -fuzztime=10s ./internal/rel/
	$(GO) test -run=^$$ -fuzz=FuzzEventEncoding -fuzztime=10s ./internal/trace/
	$(GO) test -run=^$$ -fuzz=FuzzGraphOps -fuzztime=10s ./internal/graph/
	$(GO) test -run=^$$ -fuzz=FuzzEngineOrder -fuzztime=10s ./internal/sim/
	$(GO) test -run=^$$ -fuzz=FuzzNetworkScript -fuzztime=10s ./internal/phys/
	$(GO) test -run=^$$ -fuzz=FuzzCacheScript -fuzztime=10s ./internal/cache/
	$(GO) test -run=^$$ -fuzz=FuzzJSONLWriterScript -fuzztime=10s ./internal/trace/

# The ROADMAP's size table from one counter: non-test Go lines per package
# group, of the tree outside benchmark/, and that tree's test lines. Issues,
# CHANGES.md and re-anchors quote these numbers.
loc:
	@for g in internal/exp internal/trace benchmark "internal/linearize internal/sim" \
		"internal/ssr internal/vrr internal/isprp internal/floodboot internal/node" \
		internal/graph "internal/phys internal/rel" internal/chaos; do \
		printf '%6d  %s\n' $$(find $$g -name '*.go' -not -name '*_test.go' | xargs cat | wc -l) "$$g"; \
	done
	@printf '%6d  total outside benchmark/\n' $$(find . -name '*.go' -not -name '*_test.go' -not -path './benchmark/*' | xargs cat | wc -l)
	@printf '%6d  tests outside benchmark/\n' $$(find . -name '*_test.go' -not -path './benchmark/*' | xargs cat | wc -l)

clean:
	$(GO) clean ./...
