#!/usr/bin/env bash
# require-tests.sh PATTERN PKG...
#
# Fails unless every |-separated alternative of the `go test -run` PATTERN
# names at least one test, example or fuzz target in PKG... . A -run
# pattern that matches nothing prints "ok ... [no tests to run]" and exits
# 0, so without this check a renamed test drops out of a CI step silently.
set -euo pipefail
pattern=$1
shift
list=$(go test -list . "$@")
names=$(grep -E '^(Test|Example|Fuzz)' <<<"$list" || true)
missing=0
IFS='|' read -ra alts <<<"$pattern"
for alt in "${alts[@]}"; do
  if ! grep -qE -- "$alt" <<<"$names"; then
    echo "go test -run alternative '$alt' matches no test in $*" >&2
    missing=1
  fi
done
exit "$missing"
