#!/usr/bin/env bash
# Builds the benchmark from source and runs it. Run from the repository
# root, for example:
#
#   bash perfbench/run.sh --workload compile-suite --seed 1 --seconds 20 --trace 0
#
# Build products, the Go build cache and run outputs go to .bench_build/
# under the current directory, so nothing is written outside it.
set -euo pipefail

root=$(pwd)
here=$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)
build="$root/.bench_build"
mkdir -p "$build"

export GOCACHE="$build/gocache"
export GOMODCACHE="$build/gomodcache"
export GOTOOLCHAIN=local
export GOPROXY=off
export GOFLAGS=

go -C "$here" build -o "$build/bin/perfbench" .
exec "$build/bin/perfbench" "$@"
