#!/usr/bin/env bash
# Builds the benchmark from this checkout's sources and runs it from the
# checkout root with the given arguments (see bench/README.md). The
# build cache, the binary, the Go tool's configuration and telemetry
# (XDG_CONFIG_HOME) and every temporary directory the runs create stay
# under .bench_build/ in the checkout.
set -euo pipefail
root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
build="$root/.bench_build"
mkdir -p "$build/tmp"
export GOCACHE="$build/gocache" GOPATH="$build/gopath" GOTMPDIR="$build/tmp" TMPDIR="$build/tmp"
export XDG_CONFIG_HOME="$build/config" GOTOOLCHAIN=local GOPROXY=off
(cd "$root/bench" && go build -o "$build/fedgpo-bench" .)
cd "$root"
exec "$build/fedgpo-bench" "$@"
