#!/usr/bin/env bash
# Builds the cograd benchmark from source and runs it with the given
# arguments, from the root of a checkout:
#
#   bash cogradbench/run.sh --workload dense-shared --seed 1 --seconds 10 --trace 0
#
# Every build artefact (binary, Go build cache, span files) stays under
# .bench_build/ in the checkout.
set -euo pipefail
root=$(pwd)
out="$root/.bench_build"
mkdir -p "$out"
export GOCACHE="$out/gocache" GOMODCACHE="$out/gomodcache" XDG_CONFIG_HOME="$out/config"
export GOFLAGS= GOTOOLCHAIN=local GOWORK=off
(cd "$root/cogradbench" && go build -o "$out/cogradbench" .)
exec "$out/cogradbench" "$@"
