#!/usr/bin/env bash
# Builds the benchmark inside the checkout and runs it. The Go build cache
# and temp dir are redirected under .bench_build so that nothing is read
# from or written to a path outside the checkout.
set -euo pipefail
cd "$(dirname "$0")/.."
build="$PWD/.bench_build"
mkdir -p "$build/tmp"
export GOCACHE="$build/gocache" GOTMPDIR="$build/tmp" GOTOOLCHAIN=local
go build -o "$build/bench" ./bench
exec "$build/bench" "$@"
