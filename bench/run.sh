#!/usr/bin/env bash
# Builds the benchmark and the idemd daemon from the checkout it is run
# in, then runs the benchmark with the given arguments. Run it from the
# repository root:
#
#   bash bench/run.sh --workload serve --seed 1 --seconds 15 --trace 0
#   bash bench/run.sh -runs 3 -json setA.json        # every workload
#   bash bench/run.sh -compare setA.json setB.json
#
# Everything the build and the run write stays under .bench_build/ in the
# checkout: the Go build cache, the binaries, and the daemons' scratch
# directories.
set -euo pipefail

root=$(pwd)
out="$root/.bench_build"
mkdir -p "$out/tmp"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" TMPDIR="$out/tmp"
export XDG_CONFIG_HOME="$out/config" GOENV=off GOTOOLCHAIN=local GOFLAGS=

go -C "$root/bench" build -o "$out/bench" .
go -C "$root/bench" build -o "$out/idemd" idemproc/cmd/idemd
exec "$out/bench" "$@"
