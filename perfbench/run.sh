#!/usr/bin/env bash
# Builds the benchmark from the checkout's sources and runs it. Run from
# the repository root:
#
#   bash perfbench/run.sh --workload node-zipf --seed 1 --seconds 10 --trace 0
#
# Everything the build and the run write stays under .bench_build/ in the
# checkout: the Go build cache, the binary, generated inputs and traces.
set -euo pipefail

root=$(pwd)
build="$root/.bench_build"
mkdir -p "$build/gocache" "$build/tmp" "$build/home"
export GOCACHE="$build/gocache" GOTMPDIR="$build/tmp" HOME="$build/home" \
	XDG_CONFIG_HOME="$build/home" GOPATH="$build/home/go" \
	GOFLAGS= GOPROXY=off GOTOOLCHAIN=local
go -C perfbench build -o "$build/perfbench" .
exec "$build/perfbench" -work "$build" "$@"
