#!/bin/sh
# Builds the benchmark into .bench_build/ of the checkout it is run from and
# runs it there. The Go build cache and temp files are kept inside the
# checkout too, so nothing is read or written outside it.
set -eu
root=$(pwd)
build="$root/.bench_build"
mkdir -p "$build/tmp"
export GOCACHE="$build/gocache" GOPATH="$build/gopath" GOTMPDIR="$build/tmp" GOTOOLCHAIN=local GOPROXY=off GOFLAGS=
(cd "$root/bench" && go build -o "$build/gdmpbench" .)
exec "$build/gdmpbench" "$@"
