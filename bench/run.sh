#!/usr/bin/env bash
# Builds the ledger harness and runs it with the given arguments:
#
#   bash bench/run.sh -workload query_hot -seed 1 -seconds 15 -trace 0
#
# This is the command BENCHMARK.json names. Everything the build and the
# run write stays inside the checkout: the binary, Go's build cache and
# its temporary files go to .bench_build/ at the repository root, next to
# the harness's own scratch directory (index files, spill runs).
set -euo pipefail
here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
root="$(dirname "$here")"
build="$root/.bench_build"
mkdir -p "$build/gocache" "$build/gotmp" "$build/gopath" "$build/config"
export GOCACHE="$build/gocache" GOTMPDIR="$build/gotmp" GOPATH="$build/gopath"
export XDG_CONFIG_HOME="$build/config" GOFLAGS=-mod=mod GOTOOLCHAIN=local GOWORK=off
(cd "$here" && go build -o "$build/ledger" .)
cd "$root"
exec "$build/ledger" "$@"
