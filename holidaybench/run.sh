#!/usr/bin/env bash
# Builds holidaybench from the sources of this checkout and runs it with the
# given arguments. Run it from the repository root, for example:
#
#   bash holidaybench/run.sh --workload durable-churn --seed 1 --seconds 10 --trace 0
#
# Everything the build and the run write (Go caches, the binary, WAL and
# snapshot directories, span files) stays under .bench_build/ in the current
# directory.
set -euo pipefail

root=$(pwd)
out="$root/.bench_build"
mkdir -p "$out/home" "$out/tmp"
export HOME="$out/home" XDG_CACHE_HOME="$out/home/.cache" XDG_CONFIG_HOME="$out/home/.config"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" GOTMPDIR="$out/tmp" TMPDIR="$out/tmp"
export GOTOOLCHAIN=local GOPROXY=off GOFLAGS=

(cd "$root/holidaybench" && go build -o "$out/holidaybench" .)
exec "$out/holidaybench" "$@"
