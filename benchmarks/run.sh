#!/usr/bin/env bash
# run.sh — build knnperf from source and run it, as one process.
#
#   benchmarks/run.sh                       every workload, both passes, JSON report
#   benchmarks/run.sh --workload mesh_scan --seed 1 --seconds 12 --trace 0
#   benchmarks/run.sh -compare a.json b.json
#
# Everything the build leaves behind stays under .bench_build/ in the
# checkout: the binary, Go's build cache and its temporary files. The binary
# replaces this shell (exec), so there is never a child process to clean up.
set -euo pipefail
root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
cd "$root"

build="$root/.bench_build"
mkdir -p "$build/tmp"
export GOCACHE="$build/gocache" GOTMPDIR="$build/tmp" GOPATH="$build/gopath" GOMODCACHE="$build/gomodcache"
export GOFLAGS=-mod=readonly GOTOOLCHAIN=local GOWORK=off XDG_CONFIG_HOME="$build/config"

commit="$(git -C "$root" rev-parse --short HEAD 2>/dev/null || echo unknown)"
(cd benchmarks && go build -buildvcs=false -ldflags "-X main.commit=$commit" -o "$build/knnperf" ./knnperf)

if [ $# -eq 0 ]; then
  set -- -all -json
fi
exec "$build/knnperf" "$@"
