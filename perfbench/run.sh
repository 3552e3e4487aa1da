#!/usr/bin/env bash
# Builds the benchmark from source and runs it. Run from the repository
# root: bash perfbench/run.sh --workload NAME --seed N --seconds S --trace 0|1
#
# Every build artifact and cache stays under .bench_build in the working
# directory; the build uses only the local toolchain and module sources.
set -euo pipefail
build="$PWD/.bench_build"
mkdir -p "$build/tmp"
export GOCACHE="$build/gocache" GOPATH="$build/gopath" GOTMPDIR="$build/tmp" \
	XDG_CONFIG_HOME="$build/config" GOENV=off GOWORK=off GOPROXY=off \
	GOTOOLCHAIN=local CGO_ENABLED=0
go -C perfbench build -o "$build/perfbench" .
exec "$build/perfbench" "$@"
