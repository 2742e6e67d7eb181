#!/usr/bin/env bash
# Builds the end-to-end serving benchmark from this checkout's sources and
# runs it. Run from the repository root:
#
#   bash perfbench/run.sh --workload tcp-read --seed 1 --seconds 20 --trace 0
#
# Every build and run artifact (Go build cache, binary, fixture store,
# span dumps) stays under .bench_build/ in the checkout. Build output goes
# to stderr so the last line on stdout is the benchmark's JSON result.
set -euo pipefail

root=$PWD
out=$root/.bench_build
mkdir -p "$out"

export GOCACHE=$out/gocache GOMODCACHE=$out/gomod GOPATH=$out/gopath \
	XDG_CONFIG_HOME=$out/config XDG_CACHE_HOME=$out/cache \
	GOENV=off GOTOOLCHAIN=local GOPROXY=off GOWORK=off CGO_ENABLED=0

(cd "$root/perfbench" && go build -o "$out/perfbench" .) >&2
exec "$out/perfbench" "$@"
