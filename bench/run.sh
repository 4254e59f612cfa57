#!/usr/bin/env bash
# Builds the benchmark from source and runs it from the repository root;
# every argument is passed on (see bench/main.go). The Go build cache,
# temporary files and the binary stay in .bench_build at the root, so a
# run reads and writes nothing outside the checkout besides the Go
# toolchain itself.
set -euo pipefail
root=$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)
cd "$root"
build="$root/.bench_build"
mkdir -p "$build/tmp"
export GOCACHE="$build/gocache" GOMODCACHE="$build/gomodcache" GOTMPDIR="$build/tmp"
export XDG_CONFIG_HOME="$build/config" GOTOOLCHAIN=local GOPROXY=off GOFLAGS=
(cd bench && go build -o "$build/bench" .)
exec "$build/bench" "$@"
