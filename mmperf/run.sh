#!/usr/bin/env bash
# Builds the mmperf benchmark from this checkout's sources and runs it.
# Every build and run artifact stays under .bench_build/ at the checkout
# root. Arguments pass through, e.g.:
#   bash mmperf/run.sh --workload choice-fanout --seed 1 --seconds 20 --trace 0
set -euo pipefail
root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
build="$root/.bench_build"
mkdir -p "$build/tmp"
export GOCACHE="$build/gocache" GOPATH="$build/gopath" GOMODCACHE="$build/gopath/pkg/mod" GOTMPDIR="$build/tmp"
export XDG_CONFIG_HOME="$build/config" GOTELEMETRY=off GOFLAGS= GOWORK=off
export GOPROXY=off GOTOOLCHAIN=local CGO_ENABLED=0
(cd "$root/mmperf" && go build -o "$build/mmperf" .)
cd "$root"
exec "$build/mmperf" --data "$build" "$@"
