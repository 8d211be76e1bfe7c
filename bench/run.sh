#!/usr/bin/env bash
# Builds the benchmark from source and runs it. Run from the repository
# root; every argument is passed to the program (see bench/main.go):
#
#   bash bench/run.sh --workload cross4-dense --seed 1 --seconds 20 --trace 0
#   bash bench/run.sh                       # every workload, into .bench_build/results.json
#   bash bench/run.sh compare A.json B.json
#
# The Go build cache, temporary files and the binary live in .bench_build/
# so a run writes nothing outside the checkout. A failed build exits
# non-zero before anything is measured.
set -euo pipefail

root=$(pwd)
out="$root/.bench_build"
mkdir -p "$out/tmp" "$out/config"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" GOTMPDIR="$out/tmp" TMPDIR="$out/tmp"
export XDG_CONFIG_HOME="$out/config" GOTOOLCHAIN=local GOWORK=off GOFLAGS=

go -C "$root/bench" build -o "$out/nwade-benchmark" .
exec "$out/nwade-benchmark" "$@"
