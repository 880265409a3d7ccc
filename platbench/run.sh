#!/usr/bin/env bash
# Builds the benchmark from this checkout's sources and runs it with the
# given arguments, e.g.
#   bash platbench/run.sh --workload point-read --seed 1 --seconds 20 --trace 0
#   bash platbench/run.sh --selftest
# Build products and the Go build cache stay in .bench_build at the root.
set -euo pipefail
root="$(cd "$(dirname "$0")/.." && pwd)"
out="$root/.bench_build"
mkdir -p "$out/tmp"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" GOTMPDIR="$out/tmp" GOENV=off GOTOOLCHAIN=local GOFLAGS=
(cd "$root/platbench" && go build -o "$out/platbench" .) >&2
cd "$root"
exec "$out/platbench" "$@"
