#!/usr/bin/env bash
# Builds the benchmark from source and runs it; every argument is passed on
# (see main.go). Run it from anywhere: the build cache, temporary files and
# the binary all live in .bench_build/ at the repository root, so a run
# writes nothing outside the checkout.
set -euo pipefail

bench_dir=$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)
root=$(dirname "$bench_dir")
build="$root/.bench_build"
mkdir -p "$build/gocache" "$build/gopath" "$build/tmp" "$build/config"
export GOCACHE="$build/gocache" GOPATH="$build/gopath" GOTMPDIR="$build/tmp" TMPDIR="$build/tmp"
# The go command's env file and telemetry counters live under the user
# config directory.
export XDG_CONFIG_HOME="$build/config"
export GOTOOLCHAIN=local GOFLAGS=-buildvcs=false

go -C "$bench_dir" build -o "$build/bench" .
cd "$root"
exec "$build/bench" "$@"
