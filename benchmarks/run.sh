#!/usr/bin/env bash
# Builds the benchmark from source into <checkout>/.bench_build and runs it
# with the given arguments. Everything go writes (build cache, telemetry)
# is kept inside the checkout; the build does not consult git.
set -euo pipefail
here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
root="$(dirname "$here")"
build="$root/.bench_build"
mkdir -p "$build"
export GOCACHE="$build/go-cache" XDG_CONFIG_HOME="$build/config"
export GOTOOLCHAIN=local GOWORK=off
(cd "$here" && go build -buildvcs=false -o "$build/scalesim-bench" .)
cd "$root"
exec "$build/scalesim-bench" "$@"
