#!/usr/bin/env bash
# Builds the benchmark program and mspctool from this checkout's sources and
# runs it with the given arguments:
#
#   bash perfbench/run.sh --workload tcp-steady --seed 1 --seconds 20 --trace 0
#
# Run it from the repository root. Every build output, Go cache and run
# directory stays under .bench_build/ in the checkout.
set -euo pipefail

root=$(pwd)
if [[ ! -f "$root/go.mod" || ! -d "$root/cmd/mspctool" ]]; then
	echo "perfbench: run from the repository root (go.mod and cmd/mspctool not found)" >&2
	exit 2
fi
out="$root/.bench_build"
mkdir -p "$out/bin" "$out/tmp" "$out/home"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" GOMODCACHE="$out/gopath/pkg/mod"
export XDG_CONFIG_HOME="$out/config" HOME="$out/home" TMPDIR="$out/tmp" GOTMPDIR="$out/tmp"
export GOTOOLCHAIN=local GOPROXY=off GOFLAGS=-mod=readonly GOWORK=off GOENV=off CGO_ENABLED=0

go build -o "$out/bin/mspctool" ./cmd/mspctool
go -C perfbench build -o "$out/bin/perfbench" .
exec "$out/bin/perfbench" -mspctool "$out/bin/mspctool" -workdir "$out/runs" "$@"
