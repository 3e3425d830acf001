#!/usr/bin/env bash
# Builds the benchmark from the checkout it stands in and runs it.
# Everything it writes - Go's build cache, the two binaries, server data
# directories, traces and logs - stays under .bench_build in that
# checkout.
#
#   bash bench/run.sh --workload clean_large --seed 1 --seconds 50 --trace 0
set -euo pipefail

root="$(pwd)"
build="$root/.bench_build"
mkdir -p "$build/gocache" "$build/gotmp" "$build/bin"

export GOCACHE="$build/gocache"
export GOTMPDIR="$build/gotmp"
export GOTOOLCHAIN=local
export GOPROXY=off

(cd "$root/bench" && go build -o "$build/bin/bench" .)
exec "$build/bin/bench" -root "$root" -build-dir "$build" "$@"
