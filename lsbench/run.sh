#!/usr/bin/env bash
# Builds the benchmark from the checkout's sources and runs it with the
# given arguments, from the root of the checkout:
#
#   bash lsbench/run.sh --workload git-audit --seed 1 --seconds 20 --trace 0
#
# Build outputs and the Go build cache stay under $CARGO_TARGET_DIR
# (default .bench_build), so a run writes nothing outside the checkout.
set -euo pipefail
root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
cd "$root"
out="${CARGO_TARGET_DIR:-.bench_build}"
mkdir -p "$out"
out="$(cd "$out" && pwd)"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" GOTOOLCHAIN=local GOFLAGS=
(cd lsbench && go build -o "$out/lsbench" .)
exec "$out/lsbench" "$@"
