#!/usr/bin/env bash
# Builds the benchmark harness inside the checkout (build cache and
# binary under .bench_build/) and runs it from the repository root.
set -euo pipefail
here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
root="$(dirname "$here")"
build="$root/.bench_build"
mkdir -p "$build/tmp"
export GOCACHE="$build/gocache" GOTMPDIR="$build/tmp" GOTOOLCHAIN=local
(cd "$here" && go build -o "$build/lexbench" .)
cd "$root"
exec "$build/lexbench" "$@"
