#!/usr/bin/env bash
# Builds the benchmark and the gapd daemon from this checkout's sources, then
# runs one benchmark workload. Run from the repository root:
#
#	bash _perfbench/run.sh --workload serve-mix --seed 1 --seconds 15 --trace 0
#
# Every build artifact, cache and temporary file stays under .bench_build/ in
# the checkout (BENCH_BUILD overrides the location).
set -euo pipefail

root=$(pwd)
out=${BENCH_BUILD:-$root/.bench_build}
case $out in /*) ;; *) out=$root/$out ;; esac
mkdir -p "$out/bin" "$out/gocache" "$out/tmp" "$out/config" "$out/cache" "$out/gomod"

# Keep the go tool's caches, telemetry and temporary files inside the
# checkout, and keep user-level go settings (go env file, workspaces,
# toolchain switching) from changing what gets built.
export GOCACHE=$out/gocache GOTMPDIR=$out/tmp GOMODCACHE=$out/gomod TMPDIR=$out/tmp
export XDG_CONFIG_HOME=$out/config XDG_CACHE_HOME=$out/cache
export GOENV=off GOFLAGS= GOPROXY=off GOTOOLCHAIN=local GOWORK=off

# _perfbench is its own module that replaces gapbench with the checkout, so
# one build in one module graph yields both binaries.
(cd _perfbench && go build -o "$out/bin/" gapbench/cmd/gapd .)
exec "$out/bin/perfbench" --gapd "$out/bin/gapd" --workdir "$out" "$@"
