#!/usr/bin/env bash
# Builds the hicperf benchmark from source and runs it with the given
# arguments, from the root of a checkout:
#
#   bash hicperf/run.sh --workload des_points --seed 1 --seconds 15 --trace 0
#
# Build outputs, Go caches, the go command's config and telemetry,
# temporary stores and traced-run artifacts all stay under
# $CARGO_TARGET_DIR (default .bench_build) in the checkout. Nothing is
# fetched: the module has no dependencies outside the repository.
set -euo pipefail
root=$(pwd)
build=${CARGO_TARGET_DIR:-.bench_build}
case $build in /*) ;; *) build=$root/$build ;; esac
mkdir -p "$build/gocache" "$build/tmp" "$build/config"
export GOCACHE=$build/gocache GOTMPDIR=$build/tmp TMPDIR=$build/tmp
export GOPATH=$build/gopath GOMODCACHE=$build/gopath/pkg/mod
export XDG_CONFIG_HOME=$build/config
export GOPROXY=off GOTOOLCHAIN=local GOWORK=off GOFLAGS=
(cd "$root/hicperf" && go build -o "$build/hicperf" .) >&2
exec "$build/hicperf" --out-dir "$build/hicperf-out" "$@"
