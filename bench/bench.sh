#!/usr/bin/env bash
# Build the benchmark from source, inside the checkout, and run it with
# the arguments given. This is BENCHMARK.json's command:
#
#   bash bench/bench.sh --workload ws_small --seed 1 --seconds 24 --trace 0
#
# Everything the build writes (Go build cache, temporary files, the
# binary) goes under .bench_build/ at the root of the checkout, so a run
# reads and writes only inside its checkout. The first build compiles the
# standard library into that cache and takes about a minute; later runs
# reuse it and only check that nothing changed.
set -euo pipefail
cd "$(dirname "${BASH_SOURCE[0]}")/.."
build="$PWD/.bench_build"
mkdir -p "$build/tmp"
export GOCACHE="$build/gocache" GOTMPDIR="$build/tmp" GOPATH="$build/gopath"
export GOTOOLCHAIN=local GOTELEMETRY=off
go build -o "$build/bench" ./bench
exec "$build/bench" "$@"
