#!/usr/bin/env bash
# BENCHMARK.json's command: build the benchmark from the checkout's
# source and run it. Everything the Go toolchain and the benchmark write
# (build cache, temporary files, data directories, results and span
# files) stays under .bench_build/ in the checkout; the network is not
# used. Results and spans land in .bench_build/out, one file per workload
# and kind, each run replacing the last.
#
#   bash bench/run.sh --workload query_cpu --seed 7 --seconds 10 --trace 0
set -euo pipefail
cd "$(dirname "${BASH_SOURCE[0]}")/.."

build="$PWD/.bench_build"
mkdir -p "$build/tmp"
export GOCACHE="$build/go-cache"
export GOTMPDIR="$build/tmp"
export TMPDIR="$build/tmp"
export XDG_CONFIG_HOME="$build/config"
export GOTOOLCHAIN=local
export GOPROXY=off

go -C bench build -o "$build/kadop-bench" .
exec "$build/kadop-bench" -out "$build/out" "$@"
