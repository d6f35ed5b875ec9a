#!/usr/bin/env bash
# Builds ordod and perfbench from this checkout's sources, then
# runs perfbench with the given arguments:
#
#   bash perfbench/run.sh --workload read-mostly --seed 1 --seconds 25 --trace 0
#
# Build outputs, the Go build cache and scratch state live under
# .bench_build/ (or $CARGO_TARGET_DIR when set) inside the checkout.
set -euo pipefail

root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
cd "$root"
out="${CARGO_TARGET_DIR:-.bench_build}"
case "$out" in /*) ;; *) out="$root/$out" ;; esac
mkdir -p "$out/gocache" "$out/gotmp" "$out/gomodcache"

export GOCACHE="$out/gocache" GOTMPDIR="$out/gotmp" GOMODCACHE="$out/gomodcache"
export GOTOOLCHAIN=local GOPROXY=off GOFLAGS=-buildvcs=false GOWORK=off

go build -o "$out/ordod" ./cmd/ordod >&2
(cd perfbench && go build -o "$out/perfbench" .) >&2

exec "$out/perfbench" -ordod "$out/ordod" -work "$out/work" "$@"
