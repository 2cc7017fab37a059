#!/usr/bin/env bash
# Builds the benchmark from the checkout's sources and runs it with the
# given arguments. Run from the root of the repository:
#
#   bash perfbench/run.sh --workload paper-tables --seed 1 --seconds 30 --trace 0
#
# Every build output stays inside the checkout, under .bench_build/.
set -euo pipefail

out="$(pwd)/.bench_build"
mkdir -p "$out/tmp"
export GOCACHE="$out/gocache" GOMODCACHE="$out/gomod" GOTMPDIR="$out/tmp"
export GOTOOLCHAIN=local GOFLAGS= GOENV=off
go -C perfbench build -o "$out/perfbench" .
exec "$out/perfbench" "$@"
