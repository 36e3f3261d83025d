#!/usr/bin/env bash
# Builds the benchmark from source and runs it. Run it from the root of the
# repository; every build and run artifact stays under .bench_build/ there.
#
#   bash benchmark/run.sh run --workload read_fleet --seed 1 --seconds 12 --trace 0
#   bash benchmark/run.sh compare -a base/*.out -b change/*.out
set -euo pipefail

out="$PWD/.bench_build"
mkdir -p "$out/gocache" "$out/gotmp"
export GOCACHE="$out/gocache" GOTMPDIR="$out/gotmp" GOMODCACHE="$out/gomodcache"
export GOFLAGS= GOWORK=off GOTOOLCHAIN=local GOPROXY=off
go -C benchmark build -o "$out/domainnet-bench" .
exec "$out/domainnet-bench" "$@"
