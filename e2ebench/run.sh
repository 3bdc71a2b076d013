#!/usr/bin/env bash
# Builds the end-to-end benchmark from source and runs it from the root of
# a checkout, passing every argument through:
#
#   bash e2ebench/run.sh --workload pace_fresh --seed 1 --seconds 10 --trace 0
#
# Everything the build and the run write (Go build cache, the binary, the
# benchmark's WAL data directories and span files) lands under .bench_build
# in the current directory.
set -euo pipefail
root=$(pwd)
build="$root/.bench_build"
mkdir -p "$build"
export GOCACHE="$build/gocache" GOPATH="$build/gopath" GOMODCACHE="$build/gopath/pkg/mod" \
	XDG_CONFIG_HOME="$build/config" XDG_CACHE_HOME="$build/cache" \
	GOTOOLCHAIN=local GOWORK=off GOFLAGS=-buildvcs=false GOPROXY=off
(cd "$root/e2ebench" && go build -o "$build/e2ebench" .)
exec "$build/e2ebench" "$@"
