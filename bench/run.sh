#!/usr/bin/env bash
# Builds the benchmark from source and runs it, passing every argument on.
# Run it from anywhere; it works in the repository root:
#
#   bash bench/run.sh --workload table1 --seed 1 --seconds 15 --trace 0
#   bash bench/run.sh --seed 1                 # all four workloads
#   bash bench/run.sh compare -base A -head B  # judge two sets of saved runs
#
# The build uses only the Go toolchain on PATH and the sources in the
# repository, and keeps its cache, temporary files and binary under
# .bench_build/ in the repository root. Spans files go to bench-out/.
set -euo pipefail

root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
cd "$root"
out="$root/.bench_build"
mkdir -p "$out/tmp"

export GOENV=off GOTOOLCHAIN=local GOPROXY=off GOFLAGS=-mod=readonly
export GOCACHE="$out/gocache" GOMODCACHE="$out/gomodcache" GOPATH="$out/gopath"
export GOTMPDIR="$out/tmp" TMPDIR="$out/tmp"
# The go command keeps telemetry counters under the user config directory.
export XDG_CONFIG_HOME="$out/config"

go -C bench build -o "$out/bench" .
exec "$out/bench" "$@"
