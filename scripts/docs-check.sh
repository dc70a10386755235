#!/bin/sh
# Fails when README.md, EXPERIMENTS.md, DESIGN.md or the verify skill quote
# a ./cmd/<name>, internal/<pkg> or examples/<dir> directory, a
# results/<file> (written out: globs and {a,b} lists are not checked) or an
# ssrsim `-mode <m>` that does not exist, so a rename or a deletion cannot
# leave dead commands, package names or artifacts in the docs. Also fails
# on a one-variable `for u := range g.Neighbors(v)` anywhere in the Go
# sources: Neighbors returns a slice, so that form compiles and yields
# indices, and go vet does not flag it where u is only compared. And fails
# when a non-test Go file outside internal/ids calls IntervalIndex(: ids.Slot
# is the one LSN slot rule, which the round model and SSR's route cache both
# use, so the rule cannot grow a second copy. And fails when a non-test Go
# file outside internal/vring calls GloballyConsistent(: the protocols'
# oracles are one in-place walk over the sorted line (internal/node), and
# the SuccMap checker, which rebuilds maps on every call, is their test
# reference, not a path a poll may take. And fails when a non-test Go file
# under internal/exp calls fmt.Print* or names os.Stdout, or a test under
# cmd/ or internal/exp assigns os.Stdout or os.Stderr: an experiment is a
# method on an exp.Harness value and prints through the writer its caller
# passes, so concurrent runs (ssrsim's parallel pinned modes) share no
# output and no harness state. And fails when non-test Go under internal/
# names ShardedRunner, ShardProfiler or daemonExecute: linearize.Engine.Run
# is the one round loop, and the random-sequential daemon is its atomic
# path on one shard, so neither a generic runner nor a third path may come
# back. And fails when non-test Go names SeriesFromEvents, StallWindow,
# Stalled( or GloballyConsistentLine, or linearize.Config declares a Probe
# field: trace.Probe only emits, trace.Analysis is the one fold of its
# series (live when teed, offline through AnalyzeStream), and OnRound is
# the round model's one per-round hook. And fails when the ssr, vrr or
# isprp Config declares TickInterval, HelloInterval or FloodDelay, when
# non-test Go in internal/chaos names RunConfig or in internal/exp names
# BindCLI or CLIOptions, or when internal/exp or internal/chaos declares a
# Protocol alias: each protocol runs on one tick (a package constant),
# chaos.Run on NewChecker's cadence and the n·4096 deadline, cmd/ssrsim
# binds its own flags, and callers name node.Protocol. And fails when
# non-test Go declares a StatsSink type or reads an Analysis.Stats field:
# trace.Analysis is the one place where events become metrics, so no second
# fold may grow beside it. And fails when a non-test Go file imports "net",
# "net/http" or a package under it, or a non-test file under cmd/ names a
# "listen" or "pprof" flag: a run is read after it ends, from its -trace
# file through tracectl, and profiled through go test's -cpuprofile and
# -memprofile, so no live server comes back beside that reader. Run from
# the repo root.
docs="README.md EXPERIMENTS.md DESIGN.md .claude/skills/verify/SKILL.md"
modes=$(${GO:-go} run ./cmd/ssrsim -h 2>&1 | sed -n 's/^[[:space:]]*\([a-z][a-z]*\)[[:space:]][[:space:]]*[A-Z][0-9].*/\1/p')
[ -n "$modes" ] || { echo "docs-check: could not read the mode list from ssrsim -h"; exit 1; }
fail=0
for c in $(grep -oh -e 'cmd/[a-z][a-z]*' -e 'internal/[a-z][a-z0-9]*' $docs | sort -u); do
	[ -d "$c" ] || { echo "docs-check: the docs quote ./$c, which does not exist"; fail=1; }
done
for f in $(grep -oh -e 'results/[A-Za-z0-9_/-]*\.[a-z][a-z]*' -e 'examples/[a-z][a-z]*' $docs | sort -u); do
	[ -e "$f" ] || { echo "docs-check: the docs quote $f, which does not exist"; fail=1; }
done
for m in $(grep -oh -- '-mode [a-z][a-z]*' $docs | cut -d' ' -f2 | sort -u); do
	echo "$modes" | grep -qx "$m" || { echo "docs-check: the docs quote -mode $m, which ssrsim -h does not list"; fail=1; }
done
if grep -rn --include='*.go' 'for [A-Za-z_][A-Za-z0-9_]* := range .*\.Neighbors(' .; then
	echo "docs-check: one-variable range over Neighbors() yields indices; write 'for _, u := range'"
	fail=1
fi
if grep -rn --include='*.go' --exclude='*_test.go' 'IntervalIndex(' . | grep -v '^\./internal/ids/'; then
	echo "docs-check: only internal/ids may call IntervalIndex; take an LSN slot from ids.Slot"
	fail=1
fi
if grep -rn --include='*.go' --exclude='*_test.go' 'GloballyConsistent(' . | grep -v '^\./internal/vring/'; then
	echo "docs-check: only internal/vring may call GloballyConsistent; poll an oracle through node.Cluster's line walk"
	fail=1
fi
if grep -rn --include='*.go' --exclude='*_test.go' -e 'fmt\.Print' -e 'os\.Stdout' internal/exp; then
	echo "docs-check: internal/exp prints to the io.Writer its caller passes, never to os.Stdout"
	fail=1
fi
if grep -rnE --include='*_test.go' 'os\.(Stdout|Stderr)[[:space:]]*=[^=]' cmd internal/exp; then
	echo "docs-check: a test passes writers to the code under test instead of swapping os.Stdout/os.Stderr"
	fail=1
fi
if grep -rnE --include='*.go' --exclude='*_test.go' 'ShardedRunner|ShardProfiler|daemonExecute' internal; then
	echo "docs-check: linearize.Engine.Run is the one round loop and the daemon its one-shard atomic path; no runner or daemon path beside it"
	fail=1
fi
if grep -rnE --include='*.go' --exclude='*_test.go' -e 'SeriesFromEvents|StallWindow|GloballyConsistentLine' -e '(^|[^A-Za-z0-9_])Stalled\(' .; then
	echo "docs-check: the probe keeps no series and judges no stall; fold its EvProbe events with trace.Analysis"
	fail=1
fi
if awk '/^type Config struct/,/^}/ { print FILENAME ": " $0 }' $(ls internal/linearize/*.go | grep -v '_test\.go$') | grep -E ':[[:space:]]+Probe[[:space:]]'; then
	echo "docs-check: linearize.Config has one per-round hook, OnRound; pass OnRound: probe.Observe"
	fail=1
fi
if awk '/^type Config struct/,/^}/ { print FILENAME ": " $0 }' $(ls internal/ssr/*.go internal/vrr/*.go internal/isprp/*.go | grep -v '_test\.go$') | grep -E ':[[:space:]]+(TickInterval|HelloInterval|FloodDelay)[[:space:],]'; then
	echo "docs-check: each protocol runs on one tick; its timers are the package constants tickInterval, helloInterval and floodDelay"
	fail=1
fi
if grep -rnwE --include='*.go' --exclude='*_test.go' -e 'RunConfig' internal/chaos || grep -rnwE --include='*.go' --exclude='*_test.go' -e 'BindCLI|CLIOptions' internal/exp; then
	echo "docs-check: chaos.Run takes no config and cmd/ssrsim binds its own flags; no RunConfig, BindCLI or CLIOptions"
	fail=1
fi
if grep -rnE --include='*.go' '^[[:space:]]*(type[[:space:]]+)?Protocol[[:space:]]*=' internal/exp internal/chaos; then
	echo "docs-check: the bootstrap-protocol contract is node.Protocol; no alias of it in internal/exp or internal/chaos"
	fail=1
fi
if grep -rnE --include='*.go' --exclude='*_test.go' -e '(^|[^A-Za-z0-9_])StatsSink[[:space:]]+(struct|=|\*?Analysis)' -e '\.Stats\.[A-Z]' .; then
	echo "docs-check: trace.Analysis is the one fold of trace events; no StatsSink type beside it and no Analysis.Stats"
	fail=1
fi
if grep -rnE --include='*.go' --exclude='*_test.go' '"net(/http(/[a-z]+)?)?"' .; then
	echo "docs-check: no live server: tracectl reads a run from its -trace file, and go test -cpuprofile/-memprofile profiles it"
	fail=1
fi
if grep -rnE --include='*.go' --exclude='*_test.go' '"(listen|pprof)"' cmd; then
	echo "docs-check: cmd/ defines no -listen or -pprof flag; trace with -trace and read the file with tracectl"
	fail=1
fi
exit $fail
