#!/usr/bin/env bash
# Builds thirstyflopsd and the benchmark from this checkout, then runs
# one benchmark invocation. Run from the repository root:
#
#   bash perfbench/run.sh --workload warm_assess --seed 1 --seconds 20 --trace 0
#
# Everything it writes (Go build cache, binaries, scratch state, span
# dumps) stays under .bench_build/ in the checkout.
set -euo pipefail
if [ ! -f go.mod ] || [ ! -d cmd/thirstyflopsd ] || [ ! -f perfbench/go.mod ]; then
  echo "perfbench: run from the repository root (needs go.mod, cmd/thirstyflopsd and perfbench/)" >&2
  exit 2
fi
root=$(pwd)
out="$root/.bench_build/perfbench"
mkdir -p "$out/tmp" "$root/.bench_build/home"
# Keep the go command's cache, config and telemetry inside the checkout,
# and never let it reach for a toolchain or module download.
export HOME="$root/.bench_build/home" GOENV=off GOTELEMETRY=off
export GOCACHE="$root/.bench_build/gocache" GOPATH="$root/.bench_build/gopath"
export GOTMPDIR="$out/tmp" TMPDIR="$out/tmp"
export GOTOOLCHAIN=local GOPROXY=off GOFLAGS= GOWORK=off
go build -o "$out/thirstyflopsd" ./cmd/thirstyflopsd
(cd perfbench && go build -o "$out/perfbench" .)
PERFBENCH_DIR="$out" exec "$out/perfbench" -daemon "$out/thirstyflopsd" "$@"
