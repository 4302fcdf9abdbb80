#!/usr/bin/env bash
# Entry point of the repository benchmark. Run it from the repository root:
#
#   bash bench/run.sh --workload grid-cold --seed 1 --seconds 15 --trace 0 [-o out.json]
#   bash bench/run.sh compare A.json... -- B.json...
#
# The Go build cache, the built binaries and every temporary file stay
# under .bench_build/ in the checkout.
set -euo pipefail
root=$PWD
export GOCACHE="$root/.bench_build/gocache"
export GOPATH="$root/.bench_build/gopath"
export TMPDIR="$root/.bench_build/tmp"
export GOTOOLCHAIN=local GOPROXY=off
mkdir -p "$TMPDIR"
go build -C bench -o "$root/.bench_build/bench" .
exec "$root/.bench_build/bench" "$@"
