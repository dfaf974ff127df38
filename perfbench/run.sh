#!/usr/bin/env bash
# Builds the benchmark from source and runs it with the given arguments:
#
#   bash perfbench/run.sh --workload sweep-deep --seed 1 --seconds 10 --trace 0
#
# Run it from the repository root. The Go build cache, the binary and
# everything else the toolchain writes stay under $CARGO_TARGET_DIR
# (default .bench_build) in the current directory.
set -euo pipefail
root=$(pwd)
build=${CARGO_TARGET_DIR:-.bench_build}
case $build in
/*) ;;
*) build=$root/$build ;;
esac
mkdir -p "$build/tmp"
export GOCACHE=$build/gocache GOPATH=$build/gopath GOMODCACHE=$build/gopath/pkg/mod \
	GOTMPDIR=$build/tmp XDG_CONFIG_HOME=$build/config \
	GOTOOLCHAIN=local GOPROXY=off GOFLAGS= GOWORK=off
(cd "$root/perfbench" && go build -o "$build/perfbench" .)
exec "$build/perfbench" "$@"
