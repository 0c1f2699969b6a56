#!/usr/bin/env bash
# Builds the benchmark from source into .bench_build/ of the checkout it
# is started in (Go's build cache, module cache and temporary files too,
# so nothing is written outside the checkout) and runs it there with the
# arguments given.
set -euo pipefail
root=$(pwd)
build="$root/.bench_build"
mkdir -p "$build/tmp"
export GOCACHE="$build/go-cache" GOPATH="$build/go-path" GOTMPDIR="$build/tmp"
export GOFLAGS= GOWORK=off GOTOOLCHAIN=local GOPROXY=off
go build -C "$root/benchmark" -o "$build/benchmark" .
exec "$build/benchmark" "$@"
