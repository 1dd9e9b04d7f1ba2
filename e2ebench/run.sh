#!/usr/bin/env bash
# Builds the end-to-end benchmark from source and runs it with the given
# arguments, from the root of a checkout:
#
#   bash e2ebench/run.sh --workload serve-deltas --seed 1 --seconds 10 --trace 0
#
# Build outputs, the Go build cache, temporary directories and span files
# all stay under .bench_build/ in the checkout.
set -euo pipefail
root=$(pwd)
out="$root/.bench_build"
mkdir -p "$out/gocache" "$out/tmp" "$out/config"
export GOCACHE="$out/gocache" GOTMPDIR="$out/tmp" XDG_CONFIG_HOME="$out/config"
# Offline: the module has no dependencies to fetch and the local toolchain builds it.
export GOPROXY=off GOSUMDB=off GOTOOLCHAIN=local GOWORK=off GOFLAGS=-mod=readonly
(cd "$root/e2ebench" && go build -o "$out/e2ebench" .)
exec "$out/e2ebench" "$@"
