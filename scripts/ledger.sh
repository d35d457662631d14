#!/bin/sh
# scripts/ledger.sh — vet and smoke-run the performance ledger (bench/).
#
# bench/ is its own Go module importing strtree and strtree/internal/...,
# so the root module's `go build ./...`, vet and tests never compile it: a
# change that renames or removes a name the ledger uses stays green
# everywhere until the benchmark itself fails to build. This step closes
# that gap (~40 s: every workload once at smoke size, answers checked,
# numbers meaningless). It edits nothing under bench/ and runs with the
# environment bench/run.sh sets, so Go's build cache and temp files and
# the harness's scratch index files all stay under .bench_build/.
set -eu
cd "$(dirname "$0")/.."
build="$PWD/.bench_build"
mkdir -p "$build/gocache" "$build/gotmp" "$build/gopath" "$build/config"
export GOCACHE="$build/gocache" GOTMPDIR="$build/gotmp" GOPATH="$build/gopath"
export XDG_CONFIG_HOME="$build/config" GOFLAGS=-mod=mod GOTOOLCHAIN=local GOWORK=off
go vet -C bench ./...
go test -C bench -run Smoke ./...
