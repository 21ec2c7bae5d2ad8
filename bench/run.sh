#!/usr/bin/env bash
# Builds the benchmark once into .bench_build/ (binary and Go build cache
# both, so nothing is written outside the checkout) and runs it with the
# arguments given:
#
#   bash bench/run.sh                                   every workload, untraced + traced
#   bash bench/run.sh -baseline bench/results/BENCH_13.json
#                                                       ... and diff against a baseline
#   bash bench/run.sh -aa                               A/A check against the bounds
#   bash bench/run.sh --workload W --seed N --seconds S --trace 0|1
#                                                       one measured run, one JSON line
#
# The binary pins GOMAXPROCS to min(nproc, 4) itself.
set -euo pipefail
cd "$(dirname "$0")/.."
mkdir -p .bench_build
# XDG_CONFIG_HOME keeps the toolchain's telemetry counters in here too.
export GOCACHE="$PWD/.bench_build/gocache" GOPATH="$PWD/.bench_build/gopath" \
	XDG_CONFIG_HOME="$PWD/.bench_build/config" GOTOOLCHAIN=local
go build -o .bench_build/bench ./bench
exec .bench_build/bench "$@"
