#!/usr/bin/env bash
# Entry point named by BENCHMARK.json: builds the benchmark from the checkout
# it is run in and runs it with the harness's flags
# (--workload <name> --seed <n> --seconds <s> --trace <0|1>).
#
# Everything the build leaves behind — Go's build cache, its temp files and
# the binary — stays under .bench_build in the checkout, so the first run
# pays for the build and later runs reuse it. The module is vendored and the
# toolchain is pinned to the local one: nothing is fetched.
set -euo pipefail
build="$PWD/.bench_build"
mkdir -p "$build/tmp"
export GOCACHE="$build/gocache" GOTMPDIR="$build/tmp" \
	GOFLAGS=-mod=vendor GOTOOLCHAIN=local GOPROXY=off
go build -o "$build/whatsup-benchmark" ./benchmark
exec "$build/whatsup-benchmark" "$@"
