#!/usr/bin/env bash
# Entry point of the segdbd benchmark (the "command" of BENCHMARK.json).
# Run from the repository root:
#
#   bash bench/run.sh                      all four workloads, e2e + per-layer
#   bash bench/run.sh --workload read-cold one workload
#   bash bench/run.sh -repeat 10           spread of every e2e metric vs its bound
#
# It builds the benchmark program and the real cmd/segdbd from source into
# .bench_build/ (Go build cache included, so nothing is written outside the
# checkout) and then execs the program, which owns every child it starts.
set -euo pipefail

root=$(pwd)
if [[ ! -f "$root/go.mod" || ! -d "$root/cmd/segdbd" || ! -f "$root/bench/go.mod" ]]; then
	echo "bench/run.sh: run from the segdb repository root (need go.mod, cmd/segdbd, bench/)" >&2
	exit 2
fi

build="$root/.bench_build"
mkdir -p "$build/tmp"
# Keep the Go tool inside the checkout too: its build cache, its temporary
# files, and (XDG_CONFIG_HOME) its telemetry counters.
export GOCACHE="$build/gocache" GOTMPDIR="$build/tmp" TMPDIR="$build/tmp" XDG_CONFIG_HOME="$build/config"
export GOTOOLCHAIN=local GOWORK=off

go build -o "$build/segdbd" ./cmd/segdbd
go build -C "$root/bench" -o "$build/segdb-bench" .

exec "$build/segdb-bench" -segdbd "$build/segdbd" -work "$build" -out "$root/bench/out" -manifest "$root/BENCHMARK.json" "$@"
