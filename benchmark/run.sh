#!/usr/bin/env bash
# Entry point of BENCHMARK.json: builds the benchmark (a module of its own
# that replaces `onex` with the checkout around it) and runs it from the
# checkout's root with the arguments given. Everything the build leaves
# behind (caches, the go command's own configuration and counters) stays
# under .bench_build/ in the checkout; a warm build costs a fraction of a
# second, so every run builds.
set -euo pipefail
here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
root="$(dirname "$here")"
build="$root/.bench_build"
mkdir -p "$build/tmp"
export GOCACHE="$build/gocache" GOPATH="$build/gopath" GOTMPDIR="$build/tmp"
export GOFLAGS=-mod=mod GOTOOLCHAIN=local GOWORK=off XDG_CONFIG_HOME="$build/config"
(cd "$here" && go build -o "$build/onex-benchmark" .)
cd "$root"
exec "$build/onex-benchmark" "$@"
