#!/usr/bin/env bash
# Builds the benchmark from the sources of the checkout it is run in and
# runs it with the given arguments, for example:
#
#   bash perfbench/run.sh --workload point --seed 1 --seconds 7 --trace 0
#
# Run it from the repository root. Build outputs, the Go build cache, the
# go command's config and scratch files all stay under .bench_build/ in
# that root.
set -euo pipefail
root=$(pwd)
out="$root/.bench_build"
mkdir -p "$out/gocache" "$out/tmp"
export GOCACHE="$out/gocache" GOTMPDIR="$out/tmp" GOMODCACHE="$out/gomod"
# The go command keeps its settings and telemetry under the user config
# directory; point that into the build directory too.
export XDG_CONFIG_HOME="$out/config"
export GOTOOLCHAIN=local GOPROXY=off GOWORK=off GOFLAGS=
go build -C "$root/perfbench" -o "$out/perfbench" . >&2
exec "$out/perfbench" --workdir "$out/run" "$@"
