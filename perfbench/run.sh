#!/usr/bin/env bash
# Builds and runs the benchmark from the repository root:
#
#   bash perfbench/run.sh --workload fabric96-serial --seed 1 --seconds 15 --trace 0
#
# Every file the Go toolchain writes (build cache, temp files, the
# binary, telemetry counters) stays under .bench_build/ in the current
# directory, and no toolchain or module is ever downloaded.
set -euo pipefail
root=$(pwd)
out="$root/.bench_build"
mkdir -p "$out/tmp" "$out/config"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" GOMODCACHE="$out/gopath/pkg/mod"
export GOTMPDIR="$out/tmp" TMPDIR="$out/tmp" XDG_CONFIG_HOME="$out/config"
export GOTOOLCHAIN=local GOPROXY=off GOFLAGS=-buildvcs=false GOWORK=off
go -C perfbench build -o "$out/perfbench" .
exec "$out/perfbench" "$@"
