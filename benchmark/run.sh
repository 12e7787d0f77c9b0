#!/usr/bin/env bash
# Builds the benchmark from source inside the checkout and runs it.
# Everything the build writes — the Go build cache included — goes under
# .bench_build/ at the checkout root, so a run touches nothing outside it.
set -euo pipefail
root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
cd "$root"
build="$root/.bench_build"
mkdir -p "$build"
export GOCACHE="$build/gocache" GOMODCACHE="$build/gomodcache" GOTOOLCHAIN=local GOWORK=off
go build -C benchmark -o "$build/condisc-benchmark" .
exec "$build/condisc-benchmark" "$@"
