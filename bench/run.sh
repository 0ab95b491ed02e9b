#!/usr/bin/env bash
# Builds the benchmark from the sources of the checkout it is run from
# and runs it with the given arguments, e.g.
#
#   bash bench/run.sh --workload warm-hit --seed 1 --seconds 10 --trace 0
#
# Run it from the checkout root. The Go build cache, the toolchain's
# config and telemetry, the binary and the run's scratch data all stay
# under .bench_build/ in that directory.
set -euo pipefail
out="$PWD/.bench_build"
mkdir -p "$out/tmp"
export GOCACHE="$out/gocache" GOMODCACHE="$out/gomod" GOTMPDIR="$out/tmp" XDG_CONFIG_HOME="$out/config"
export GOTOOLCHAIN=local GOFLAGS= GOWORK=off
go -C bench build -o "$out/bench" .
exec "$out/bench" "$@"
