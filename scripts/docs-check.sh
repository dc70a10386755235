#!/bin/sh
# Fails when README.md, EXPERIMENTS.md, DESIGN.md or the verify skill quote
# a ./cmd/<name>, internal/<pkg> or examples/<dir> directory, a
# results/<file> (written out: globs and {a,b} lists are not checked) or an
# ssrsim `-mode <m>` that does not exist, so a rename or a deletion cannot
# leave dead commands, package names or artifacts in the docs. Also fails
# on a one-variable `for u := range g.Neighbors(v)` anywhere in the Go
# sources: Neighbors returns a slice, so that form compiles and yields
# indices, and go vet does not flag it where u is only compared. Run from
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
exit $fail
