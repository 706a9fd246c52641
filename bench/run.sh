#!/usr/bin/env bash
# Builds the benchmark from source into .bench_build/ of the checkout
# it is run from (the repository root) and runs it with the given
# arguments. The Go build and module caches live there too, so a run
# reads and writes nothing outside the checkout.
set -euo pipefail
root=$(pwd)
build="$root/.bench_build"
mkdir -p "$build"
export GOCACHE="$build/gocache" GOMODCACHE="$build/gomodcache" GOTOOLCHAIN=local
go build -C "$(dirname "$0")" -o "$build/campaignbench" .
exec "$build/campaignbench" "$@"
