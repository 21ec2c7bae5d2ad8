#!/usr/bin/env bash
# Runs one 15 s fuzz smoke and fails when the fuzzer executed fewer than
# FLOOR inputs, so a fuzzer that stalls cannot pass as one that fuzzed.
#
#   bash .github/fuzz-smoke.sh TARGET PACKAGE FLOOR
set -euo pipefail
target=$1 pkg=$2 floor=$3
log=$(mktemp)
trap 'rm -f "$log"' EXIT
go test -run '^$' -fuzz "^${target}\$" -fuzztime 15s "$pkg" 2>&1 | tee "$log"
execs=$(grep -o 'execs: [0-9]*' "$log" | tail -1 | awk '{print $2}')
echo "$target: ${execs:-0} execs in 15 s (floor $floor)"
test "${execs:-0}" -ge "$floor"
