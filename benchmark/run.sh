#!/usr/bin/env bash
# Builds the benchmark from source into the checkout's .bench_build directory
# and runs it with the given arguments. BENCHMARK.json's command is this
# script; run it from the repository root.
#
# Everything the toolchain writes — build cache, telemetry counters, the
# binary — is kept under .bench_build, so a run reads and writes only inside
# the checkout.
set -euo pipefail

here="$(cd "$(dirname "$0")" && pwd)"
build="$(pwd)/.bench_build"
mkdir -p "$build"
export GOCACHE="$build/go-cache" XDG_CONFIG_HOME="$build/config" GOFLAGS=-buildvcs=false GOTOOLCHAIN=local

go -C "$here" build -o "$build/lightning-benchmark" .
exec "$build/lightning-benchmark" "$@"
