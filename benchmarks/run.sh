#!/usr/bin/env bash
# Builds eagerbench from source and runs it with the arguments given; this is
# the command BENCHMARK.json names. Run it from the root of a checkout:
#
#   bash benchmarks/run.sh --workload skew-severe --seed 1 --seconds 24 --trace 0
#
# Everything the build and the run write stays under .bench_build/ in the
# checkout: the binary, the Go build cache, and the traced pass's output.
set -euo pipefail

here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
root="$(dirname "$here")"
build="$root/.bench_build"
mkdir -p "$build/tmp"

# The toolchain's own files (build cache, module cache, telemetry and env
# file, scratch directories) would otherwise land under $HOME and /tmp.
export GOCACHE="$build/gocache"
export GOTMPDIR="$build/tmp"
export GOMODCACHE="$build/gomodcache"
export XDG_CONFIG_HOME="$build/config"
export GOTOOLCHAIN=local

(cd "$here" && go build -o "$build/eagerbench" ./eagerbench)
cd "$root"
exec "$build/eagerbench" "$@"
