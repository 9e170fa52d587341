#!/usr/bin/env bash
# Builds the benchmark from source and runs it from the repository root.
#
#   bash benchmark/run.sh --workload campaign-heavy --seed 1 --seconds 20 --trace 0
#   bash benchmark/run.sh                     # all four workloads, one child process each
#   bash benchmark/run.sh -regen-expected     # rewrite benchmark/testdata/expected.json
#
# Everything the Go toolchain writes (build cache, binary, telemetry) stays
# under .bench_build/ in the repository root. Outside a full checkout the
# build fails and the script exits nonzero without printing a result.
set -euo pipefail

root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
cd "$root"
out="$root/.bench_build"
mkdir -p "$out"

export GOCACHE="$out/gocache"
export GOPATH="$out/gopath"
export XDG_CONFIG_HOME="$out/config"
export GOTOOLCHAIN=local

(cd benchmark && go build -o "$out/benchmark" .)
exec "$out/benchmark" "$@"
