#!/usr/bin/env bash
# Builds the benchmark from source and runs it with the given arguments.
# Everything the build writes (binary, Go build cache, temporaries) stays in
# .bench_build/ at the root of the checkout, so a run reads and writes only
# inside the checkout. The program runs from bench/: its fixture, README and
# out/ paths are relative to this directory.
set -euo pipefail
cd "$(dirname "${BASH_SOURCE[0]}")"
build="$(cd .. && pwd)/.bench_build"
mkdir -p "$build/tmp"
export GOCACHE="$build/go-cache" GOTMPDIR="$build/tmp" GOTOOLCHAIN=local
go build -o "$build/tastebench" .
exec "$build/tastebench" "$@"
