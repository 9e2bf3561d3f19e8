#!/usr/bin/env bash
# Builds the benchmark from this checkout's sources into .bench_build and
# runs it from the checkout root with the arguments given, e.g.
#   bash perfbench/run.sh --workload serve-http --seed 1 --seconds 15 --trace 0
# Everything the build writes (binary, Go build cache, temp files) stays
# under .bench_build. Without the repository's sources next to perfbench/
# the build fails and the script exits non-zero.
set -euo pipefail
root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
cd "$root"
build="$root/.bench_build"
mkdir -p "$build/gocache" "$build/tmp"
export GOCACHE="$build/gocache" GOTMPDIR="$build/tmp" GOFLAGS=-buildvcs=false \
	GOTOOLCHAIN=local GOPROXY=off GOWORK=off GO111MODULE=on GOENV=off GOMODCACHE="$build/gomodcache"
if [ -z "${PERFBENCH_COMMIT:-}" ] && [ -d .git ]; then
	PERFBENCH_COMMIT="$(git rev-parse HEAD 2>/dev/null || echo unknown)"
fi
export PERFBENCH_COMMIT="${PERFBENCH_COMMIT:-unknown}"
go -C perfbench build -o "$build/perfbench" .
exec "$build/perfbench" "$@"
