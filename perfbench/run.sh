#!/usr/bin/env bash
# Builds the FlexLog benchmark from the source tree this script sits in and
# runs it with the given arguments, e.g.
#
#   bash perfbench/run.sh --workload append-serial --seed 1 --seconds 10 --trace 0
#
# Everything the build writes (Go build cache, binary) stays in .bench_build
# at the root of the tree. A tree without the FlexLog sources fails to build,
# and the script then exits non-zero without printing a result.
set -euo pipefail
root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
out="$root/.bench_build"
mkdir -p "$out/tmp"
export GOCACHE="$out/gocache" GOMODCACHE="$out/gomod" GOPATH="$out/gopath" GOTMPDIR="$out/tmp"
export GOTOOLCHAIN=local GOPROXY=off GOFLAGS=-mod=mod GOENV=off GOWORK=off CGO_ENABLED=0
(cd "$root/perfbench" && go build -o "$out/perfbench" .) >&2
cd "$root"
exec "$out/perfbench" "$@"
