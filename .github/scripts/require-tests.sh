#!/usr/bin/env bash
# require-tests.sh [-bench] PATTERN PKG...
#
# Fails unless every |-separated alternative of the `go test -run` PATTERN
# names at least one test, example or fuzz target in PKG... . With -bench,
# PATTERN is a `go test -bench` pattern and every alternative must name at
# least one benchmark. A pattern that matches nothing prints "ok ... [no
# tests to run]" (or a bare PASS) and exits 0, so without this check a
# renamed test or benchmark drops out of a CI step silently. `go test
# -list` names top-level tests and benchmarks only, so a sub-benchmark is
# checked through its parent.
set -euo pipefail
flag=run
kinds='Test|Example|Fuzz'
what=test
if [[ ${1-} == -bench ]]; then
  flag=bench
  kinds=Benchmark
  what=benchmark
  shift
fi
pattern=$1
shift
list=$(go test -list . "$@")
names=$(grep -E "^($kinds)" <<<"$list" || true)
missing=0
IFS='|' read -ra alts <<<"$pattern"
for alt in "${alts[@]}"; do
  if ! grep -qE -- "$alt" <<<"$names"; then
    echo "go test -$flag alternative '$alt' matches no $what in $*" >&2
    missing=1
  fi
done
exit "$missing"
