#!/bin/sh
# scripts/pairs.sh — alternating base/head pairs of ledger workloads.
#
#   scripts/pairs.sh BASE [HEAD] -workload W[,W…]|all -seed S -n N [-seconds T] [-out FILE]
#
# Builds bench/'s binary at BASE and at HEAD (a commit; default: the working
# tree) from git worktrees under .bench_build/pairs/, then runs N pairs of
# each workload, each run in a fresh process with tracing off. -workload
# takes one workload, a comma list, or all (the workloads BENCHMARK.json
# lists). Odd pairs run the base first and even pairs the head first, and
# the workloads take turns within each pair index (pair 1 of every
# workload, then pair 2, …), so drift over the session spreads over all of
# them and over both orders. -seconds defaults to run_seconds from each
# side's BENCHMARK.json (the frozen ledger length). After every pair it
# appends one JSON line to FILE (default .bench_build/pairs.jsonl):
#
#   {"pair":1,"workload":W,"seed":S,"first":"base","base_rev":…,"head_rev":…,"base":{…},"head":{…}}
#
# where base and head are the two runs' `ledger {...}` lines verbatim. At the
# end scripts/pairstat.go prints, per workload and metric, both medians and
# quartiles, how many pairs the head won and the median difference over the
# base's interquartile range, with a verdict (worse, gain, unresolved, same)
# per end-to-end metric against its BENCHMARK.json bound. Needs only POSIX
# sh, git and a Go toolchain; touches nothing under bench/.
set -eu
cd "$(dirname "$0")/.."
root=$PWD

usage() {
    echo "usage: scripts/pairs.sh BASE [HEAD] -workload W[,W…]|all -seed S -n N [-seconds T] [-out FILE]" >&2
    exit 2
}

[ $# -ge 1 ] || usage
base=$1
shift
head=
if [ $# -ge 1 ] && [ "${1#-}" = "$1" ]; then
    head=$1
    shift
fi
workload= seed= n= seconds= out="$root/.bench_build/pairs.jsonl"
while [ $# -ge 2 ]; do
    case $1 in
    -workload) workload=$2 ;;
    -seed) seed=$2 ;;
    -n) n=$2 ;;
    -seconds) seconds=$2 ;;
    -out) out=$2 ;;
    *) usage ;;
    esac
    shift 2
done
[ $# -eq 0 ] && [ -n "$workload" ] && [ -n "$seed" ] && [ -n "$n" ] || usage
if [ "$workload" = all ]; then
    workload=$(sed -n '/"workloads"/,/^  \]/s/^ *"name": *"\([^"]*\)".*/\1/p' "$root/BENCHMARK.json" | paste -sd, -)
    [ -n "$workload" ] || { echo "pairs: BENCHMARK.json lists no workloads" >&2; exit 2; }
fi
workloads=$(echo "$workload" | tr , ' ')

build="$root/.bench_build"
work="$build/pairs"
mkdir -p "$build/gocache" "$build/gotmp" "$build/gopath" "$build/config"
export GOCACHE="$build/gocache" GOTMPDIR="$build/gotmp" GOPATH="$build/gopath"
export XDG_CONFIG_HOME="$build/config" GOFLAGS=-mod=mod GOTOOLCHAIN=local GOWORK=off

cleanup() {
    for side in base head; do
        if [ -e "$work/$side/.git" ]; then
            git -C "$root" worktree remove --force "$work/$side"
        fi
    done
    git -C "$root" worktree prune
}
trap cleanup EXIT
trap 'exit 130' INT TERM
cleanup
rm -rf "$work"
mkdir -p "$work"

# checkout SIDE REV: the directory SIDE's binary is built and run from.
checkout() {
    if [ -z "$2" ]; then
        echo "$root"
        return
    fi
    git -C "$root" worktree add --detach --quiet "$work/$1" "$2" >&2
    echo "$work/$1"
}

base_rev=$(git rev-parse --verify --short "$base^{commit}")
base_dir=$(checkout base "$base_rev")
if [ -n "$head" ]; then
    head_rev=$(git rev-parse --verify --short "$head^{commit}")
else
    head_rev="$(git rev-parse --short HEAD)+worktree"
fi
head_dir=$(checkout head "${head:+$head_rev}")
for side in base head; do
    eval "dir=\$${side}_dir"
    (cd "$dir/bench" && go build -o "$work/$side.bin" .)
done

# run SIDE DIR W I: one run of workload W, its ledger line on stdout.
run() {
    log="$work/$1-$3-$4.log"
    set -- "$@" -workload "$3" -seed "$seed" -trace 0
    if [ -n "$seconds" ]; then
        set -- "$@" -seconds "$seconds"
    fi
    side=$1 dir=$2
    shift 4
    if ! (cd "$dir" && "$work/$side.bin" "$@") >"$log" 2>&1; then
        echo "pairs: $side run failed; its log, $log, ends:" >&2
        tail -n 20 "$log" >&2
        exit 1
    fi
    sed -n 's/^ledger //p' "$log"
}

echo "pairs: base $base_rev, head $head_rev; $workload, seed $seed, $n pairs each, base first in odd pairs, head first in even; nproc $(getconf _NPROCESSORS_ONLN)"
mkdir -p "$(dirname "$out")"
i=1
while [ "$i" -le "$n" ]; do
    for w in $workloads; do
        if [ $((i % 2)) -eq 1 ]; then
            first=base
            b=$(run base "$base_dir" "$w" "$i")
            h=$(run head "$head_dir" "$w" "$i")
        else
            first=head
            h=$(run head "$head_dir" "$w" "$i")
            b=$(run base "$base_dir" "$w" "$i")
        fi
        line=$(printf '{"pair":%d,"workload":"%s","seed":%s,"first":"%s","base_rev":"%s","head_rev":"%s","base":%s,"head":%s}' \
            "$i" "$w" "$seed" "$first" "$base_rev" "$head_rev" "$b" "$h")
        echo "$line" >>"$work/pairs.jsonl"
        echo "$line" >>"$out"
        echo "pairs: $w pair $i/$n done, $first first" >&2
    done
    i=$((i + 1))
done
go run "$root/scripts/pairstat.go" -spec "$root/BENCHMARK.json" "$work/pairs.jsonl"
