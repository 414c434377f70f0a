#!/usr/bin/env bash
# Entry point named by BENCHMARK.json: builds the benchmark binary from
# source into .bench_build/ at the root of the checkout (build cache, module
# cache, temporary files and the go command's counter files included, so
# nothing is written outside the checkout) and runs it from the root with the
# arguments given. The benchmark is a module of its own (benchmark/go.mod)
# that imports the runtime's internal packages from the parent directory;
# without the parent module the build fails and this script exits non-zero
# without printing a result.
set -euo pipefail
here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
root="$(dirname "$here")"
build="$root/.bench_build"
mkdir -p "$build/tmp"
export GOCACHE="$build/gocache" GOMODCACHE="$build/gomodcache" TMPDIR="$build/tmp" XDG_CONFIG_HOME="$build/config"
export GOTOOLCHAIN=local GOPROXY=off
(cd "$here" && go build -o "$build/yasmin-bench" .)
cd "$root"
exec "$build/yasmin-bench" "$@"
