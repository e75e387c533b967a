#!/usr/bin/env bash
# Builds the benchmark from the sources of the checkout it is run from,
# then runs it with the given arguments. Run from the repository root:
#
#   bash perfbench/run.sh --workload city3-default --seed 1 --seconds 10 --trace 0
#
# Build outputs and the Go build cache stay in .bench_build.
set -euo pipefail
out="$PWD/.bench_build"
mkdir -p "$out"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" GOWORK=off GOTOOLCHAIN=local GOPROXY=off GOFLAGS=
go -C perfbench build -o "$out/perfbench" .
exec "$out/perfbench" "$@"
