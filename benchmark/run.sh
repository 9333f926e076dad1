#!/usr/bin/env bash
# The benchmark driver's entry point (BENCHMARK.json's "command"): builds the
# benchmark from source inside the checkout and runs it with the driver's
# arguments. Everything it writes — the Go build cache, the binary, generated
# graphs, traces — stays under the checkout: .bench_build/ and benchmark/out/.
set -euo pipefail
cd "$(dirname "$0")"
build="$(cd .. && pwd)/.bench_build"
mkdir -p "$build/tmp"
export GOCACHE="$build/gocache" GOTMPDIR="$build/tmp" GOMODCACHE="$build/gomodcache" GOWORK=off GOTOOLCHAIN=local
go build -o "$build/vsledger" .
exec "$build/vsledger" "$@"
