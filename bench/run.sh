#!/usr/bin/env bash
# Builds the benchmark from source into the checkout's .bench_build and runs
# it with the driver's arguments. Everything Go writes (build cache, temp
# files) stays inside the checkout; the product's environment knobs are
# cleared so a run measures the configuration bench/catalog.go states.
set -euo pipefail
root=$(pwd)
build="$root/.bench_build"
mkdir -p "$build/tmp"
export GOCACHE="$build/gocache" GOTMPDIR="$build/tmp" GOPATH="$build/gopath" GOFLAGS=-buildvcs=false GOTOOLCHAIN=local
unset QSERV_DATADIR QSERV_MEMBUDGET QSERV_LOG GOMAXPROCS GOGC GODEBUG
(cd "$root/bench" && go build -o "$build/qserv-bench" .)
exec "$build/qserv-bench" "$@"
