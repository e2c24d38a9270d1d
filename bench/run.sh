#!/usr/bin/env bash
# Builds the benchmark from source and runs it from the repository root.
# Everything it writes — the Go build cache, the binary, scratch files —
# goes under .bench_build in the checkout, never outside it.
#
#   bash bench/run.sh --workload wire-udp --seed 1 --seconds 8 --trace 0
set -euo pipefail
here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
root="$(dirname "$here")"
out="$root/.bench_build"
mkdir -p "$out/tmp"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" GOTMPDIR="$out/tmp"
export GOFLAGS=-mod=mod GOTOOLCHAIN=local GOTELEMETRY=off
(cd "$here" && go build -o "$out/bench" .) >&2
cd "$root"
exec "$out/bench" "$@"
