#!/usr/bin/env bash
# Builds the benchmark from the checkout's sources and runs it. Everything the
# build writes (Go build cache, binary, span dumps) stays under the build
# directory inside the checkout: $CARGO_TARGET_DIR when set, else .bench_build.
#
#   bash perfbench/run.sh --workload table1-pa --seed 1 --seconds 25 --trace 0
set -euo pipefail

root=$(pwd)
out=${CARGO_TARGET_DIR:-.bench_build}
case $out in
/*) ;;
*) out=$root/$out ;;
esac
mkdir -p "$out"

export GOCACHE=$out/gocache GOMODCACHE=$out/gomodcache GOTOOLCHAIN=local GOPROXY=off GOWORK=off GOFLAGS=
go -C "$root/perfbench" build -o "$out/perfbench" .
exec "$out/perfbench" --out "$out" "$@"
