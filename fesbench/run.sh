#!/usr/bin/env bash
# Builds the benchmark from source inside the checkout and runs it.
# Usage, from the repository root:
#   bash fesbench/run.sh --workload study --seed 42 --seconds 40 --trace 0
set -euo pipefail
root="$(pwd)"
build="$root/.bench_build"
mkdir -p "$build"
# Keep the toolchain's caches and temporary files inside the checkout,
# and never reach for a network toolchain or module proxy.
export GOCACHE="$build/gocache" GOTMPDIR="$build" GOPATH="$build/gopath"
export GOTOOLCHAIN=local GOPROXY=off GOFLAGS=-mod=readonly GOENV=off
go build -C "$root/fesbench" -o "$build/fesbench" .
exec "$build/fesbench" -root "$root" "$@"
