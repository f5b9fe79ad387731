#!/usr/bin/env bash
# Builds the end-to-end benchmark from the checkout's sources and runs it.
# Run from the root of a checkout:
#
#   bash e2ebench/run.sh --workload ide-loop --seed 1 --seconds 15 --trace 0
#
# Everything the build and the run leave behind goes under .bench_build/.
set -euo pipefail
root=$(pwd)
out="$root/.bench_build/e2ebench"
mkdir -p "$out"
# The go command's caches and its telemetry counters (under the user
# config directory) stay inside the checkout too.
export GOCACHE="$out/gocache" GOPATH="$out/gopath" XDG_CONFIG_HOME="$out/config" \
	GOFLAGS=-mod=readonly GOPROXY=off GOTOOLCHAIN=local GOWORK=off GOENV=off
(cd "$root/e2ebench" && go build -o "$out/e2ebench" .) >&2
exec "$out/e2ebench" -out "$out" "$@"
