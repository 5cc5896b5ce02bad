#!/usr/bin/env bash
# Builds the benchmark from this checkout's sources and runs it; every
# argument is passed on. Run from the repository root:
#
#   bash perfbench/run.sh --workload fanout --seed 1 --seconds 25 --trace 0
#
# Build outputs and the Go build cache stay in .bench_build/ under the
# current directory.
set -euo pipefail
out="$PWD/.bench_build/perfbench"
mkdir -p "$out"
export GOCACHE="$out/gocache" GOMODCACHE="$out/gomodcache" GOTMPDIR="$out" \
	GOENV=off GOTOOLCHAIN=local GOPROXY=off GOFLAGS= GOWORK=off
(cd "$(dirname "$0")" && go build -o "$out/perfbench" .)
exec "$out/perfbench" "$@"
