#!/usr/bin/env bash
# Builds the simulator benchmark from source and runs it. Run from the
# repository root:
#
#   bash perfbench/run.sh --workload pair-gpu --seed 1 --seconds 20 --trace 0
#
# Every file the build writes (compiler cache, Go config, the binary, the
# traced run's profiles and spans) stays under .bench_build/ in the
# current directory. The build needs the simulator's sources one level
# above this directory, so outside a full checkout it fails and the
# script exits non-zero without printing a result.
set -euo pipefail

root="$(pwd)"
out="$root/.bench_build"
mkdir -p "$out/gocache" "$out/gopath" "$out/config"

export GOCACHE="$out/gocache"
export GOPATH="$out/gopath"
export GOMODCACHE="$out/gopath/pkg/mod"
export XDG_CONFIG_HOME="$out/config"
export GOENV=off GOTOOLCHAIN=local GOPROXY=off GOSUMDB=off GOFLAGS=-buildvcs=false

(cd "$root/perfbench" && go build -o "$out/perfbench" .)
exec "$out/perfbench" "$@"
