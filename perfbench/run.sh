#!/usr/bin/env bash
# Builds the benchmark from the checkout's sources and runs one workload:
#
#   bash perfbench/run.sh --workload <name> --seed <n> --seconds <s> --trace <0|1>
#
# Run it from the repository root. Everything the build and the run
# write stays under .bench_build/ in that directory: the Go build cache,
# the binary and the span files of traced runs.
set -euo pipefail

root=$(pwd)
out="$root/.bench_build"
mkdir -p "$out/gocache" "$out/tmp"

export GOCACHE="$out/gocache"
export GOTMPDIR="$out/tmp"
export GOMODCACHE="$out/gomod"
export GOPROXY=off
export GOTOOLCHAIN=local
export GOFLAGS=
export CGO_ENABLED=0

go build -C "$root/perfbench" -o "$out/perfbench" .
exec "$out/perfbench" -out "$out" "$@"
