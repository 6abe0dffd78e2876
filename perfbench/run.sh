#!/usr/bin/env bash
# Builds perfbench and the sp2bserve binary it drives from this checkout,
# then runs the benchmark with the given arguments. Run it from the
# repository root:
#
#   bash perfbench/run.sh --workload sweep-1m --seed 1 --seconds 10 --trace 0
#
# Build outputs, the Go build cache, snapshots and reports all stay under
# $CARGO_TARGET_DIR (default .bench_build) inside the checkout.
set -euo pipefail

root=$(pwd)
out=${CARGO_TARGET_DIR:-.bench_build}
case $out in /*) ;; *) out=$root/$out ;; esac
mkdir -p "$out/bin"

export GOCACHE=$out/gocache GOMODCACHE=$out/gomod GOPATH=$out/gopath
export GOTOOLCHAIN=local GOPROXY=off GOFLAGS= GOWORK=off GONOSUMDB= GOFLAGS=-mod=readonly

go build -o "$out/bin/sp2bserve" ./cmd/sp2bserve
(cd perfbench && go build -o "$out/bin/perfbench" .)
exec "$out/bin/perfbench" -root "$root" -serve "$out/bin/sp2bserve" -work "$out/work" "$@"
