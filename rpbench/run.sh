#!/usr/bin/env bash
# Builds the benchmark and the memcached server from this checkout's
# sources, then runs the benchmark with the given arguments:
#
#   bash rpbench/run.sh --workload cache-get --seed 1 --seconds 10 --trace 0
#
# Run it from the root of the checkout. Everything it builds or writes
# (binaries, Go build cache, span files) goes under .bench_build/.
set -euo pipefail

root=$(pwd)
out="$root/.bench_build"
mkdir -p "$out/tmp"
export GOCACHE="$out/gocache" GOTMPDIR="$out/tmp" GOTELEMETRY=off GOTOOLCHAIN=local

(cd "$root/rpbench" && go build -o "$out/rpbench" .)
go build -o "$out/memcached" ./cmd/memcached
exec "$out/rpbench" --server "$out/memcached" --spans "$out" "$@"
