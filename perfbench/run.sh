#!/usr/bin/env bash
# Builds the benchmark from source and runs it. Invoke from the repository
# root; all arguments pass through to the benchmark binary, e.g.
#
#   bash perfbench/run.sh --workload paper --seed 1 --seconds 25 --trace 0
#
# Everything the build and the run write (Go build cache, binary, per-run
# detail JSON and trace spans) stays under the build directory in the
# checkout: $CARGO_TARGET_DIR when set, else .bench_build.
set -euo pipefail

root=$(pwd)
build="${CARGO_TARGET_DIR:-.bench_build}"
case "$build" in
/*) ;;
*) build="$root/$build" ;;
esac
mkdir -p "$build/go-cache" "$build/go-tmp" "$build/perfbench"

export GOCACHE="$build/go-cache"
export GOTMPDIR="$build/go-tmp"
export GOMODCACHE="$build/go-modcache"
export GOENV=off
export GOTOOLCHAIN=local
export GOPROXY=off
export CGO_ENABLED=0

bin="$build/perfbench/perfbench"
(cd "$root/perfbench" && go build -trimpath -o "$bin" .)
exec "$bin" --out "$build/perfbench" "$@"
