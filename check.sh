#!/bin/sh
# check.sh — the repository's extended tier-1 gate (see ROADMAP.md).
# Everything here must pass before a change lands:
#
#   1. gofmt          every .go file is formatted
#   2. go vet         the standard analyzer suite (strlint repeats none
#                     of it: loop-variable capture is vet's loopclosure,
#                     locks copied by value are vet's copylocks)
#   3. go build       the whole module compiles, and three greps: no non-test
#                     .go file outside internal/node and bench/ mentions
#                     node.Unmarshal or readNode — library code reads a
#                     page through node.View only, so the second decoder
#                     cannot creep back — none outside internal/node,
#                     bench/ and internal/rtree/check.go (Check's round
#                     trip) mentions node.Marshal — every page the library
#                     writes is filled from page records (node.FillRecords,
#                     MutableView), so no builder stages node.Nodes again —
#                     and none mentions a variant the
#                     measurements retired (DESIGN.md, "Tried and
#                     dropped"): splitLinear, splitQuadratic, distribute(
#                     and splitRStar — test baselines in internal/rtree's
#                     guttman_test.go and rstar_test.go, the tile cut is
#                     the one overflow policy — NewPoolWithPolicy and
#                     evictClock (the pool evicts by LRU; trace.SimulateClock
#                     is the one Clock), SetResident (level pinning),
#                     Serpentine and SliceFactor (STR slices one way),
#                     buffer.Sharded and type Sharded (buffer.Pool is the
#                     one buffer type at any shard count) — and a fourth:
#                     the external build holds page records from source
#                     to leaf, so no non-test file of internal/extsort but
#                     entries.go (Sorter.Sort, the one entry adapter),
#                     internal/pack/external.go or internal/rtree/stream.go
#                     mentions node.Entry
#   4. strlint        the repo's own static analyzer (internal/lint),
#                     all nine checks plus its directive validator:
#                     float ==, dropped errors, library panics,
#                     cross-layer imports, map-order and time/rand
#                     determinism, guarded-by lock discipline, goroutine
#                     completion signals, context propagation — gated by
#                     the committed count-aware baseline
#                     (.strlint-baseline.json). It type-checks the module
#                     with go/types, the standard library from source, so
#                     the step takes seconds, not milliseconds; its wall
#                     time is printed.
#   5. go test        the full test suite (includes the structural
#                     verifier's corrupted-tree fixtures in internal/rtree
#                     and the fuzz seed corpora)
#   6. go test -race  the concurrency-sensitive packages: the buffer pool
#                     (incl. the sharded pool's eviction hammer and the
#                     write-pin protocol), the packers, the parallel sort
#                     kernel, the concurrent external sorter, the batch
#                     executor, the query server (admission, deadlines,
#                     drain, admin scrapes, mutation/query exclusion),
#                     the lock-free latency histogram, the metrics
#                     registry (updates racing expositions), the lint
#                     engine (parallel per-package driver), the fan-out
#                     router (scatter-gather, health probing, drain), the
#                     dynamic write path's differential oracle harness
#                     (internal/rtree …Mutate… and the root-package
#                     equivalent), internal/rtree's cold-buffer concurrent
#                     readers over a sharded pool (…ConcurrentReaders…: the
#                     per-frame validation mark read and set by racing
#                     traversals), the bulk loader's write-behind goroutine
#                     — the one place a build shares the buffer pool, the
#                     pager and the job queue across goroutines
#                     (internal/rtree …BulkLoad…, the root package's
#                     …BulkLoad… and …Parallel…BuildByteIdentical) — and
#                     the root package's concurrent Search/SearchBatch
#                     tests. The zero-alloc gates
#                     (…View…, …Mutate…ZeroAlloc) run here for their
#                     traversal coverage but skip their allocation
#                     assertions: race instrumentation allocates.
#   7. go test -bench one iteration each of the kernel benchmarks, which
#                     must keep compiling and running (nightly.yml times
#                     them): internal/node's BenchmarkViewScan (the page
#                     kernels' and the per-entry predicate's ns/entry,
#                     MakeView's ns/page), internal/rtree's
#                     BenchmarkCount1pct, BenchmarkCount1pctCold and
#                     BenchmarkNearestK10 (the ledger's count and nearest
#                     ops in small: covered subtrees counted by page
#                     header, the same counts behind the paper's 2.5 %
#                     buffer — the miss path's CPU without a system call —
#                     NearestK's pruning and its three allocations) and
#                     BenchmarkInsertPacked (the ledger's splitting insert
#                     in small: inserts into a freshly STR-packed tree,
#                     about half of them splitting a full leaf),
#                     internal/psort's BenchmarkByCenter (the radix sort
#                     kernel), internal/pack's BenchmarkSTROrder100k
#                     (STR's one-permutation order), the root package's
#                     BenchmarkBulkLoad500k (the ledger's build workload:
#                     a 500k-entry file build at Workers: 2, entries/s)
#                     and BenchmarkMutateChurn (the ledger's mutate
#                     workload in small: a packed 100k-item file behind a
#                     1 024-page pool under the quarter/quarter/half mix;
#                     µs/op, the worst op, the structural share — nightly
#                     also times internal/rtree's BenchmarkSplitPolicies
#                     and BenchmarkShrink, which price one split by the
#                     tile cut and by each test baseline, and the
#                     underflow side), BenchmarkBuildExternal (the
#                     ledger's external build in small: 100k items
#                     through extsort's record runs, the slab sorts and
#                     the streaming loader at RunSize 16 384), and
#                     internal/router's BenchmarkRoutedRoundTrip (the
#                     ledger's serve workload in small: client -> router
#                     -> 3 shards over loopback, µs and allocations per
#                     request at fan-out 1 and 3).
#   8. ledger         scripts/ledger.sh: go vet and the smoke tests of the
#                     performance ledger, bench/ — a separate module that
#                     imports strtree/internal/..., which steps 2-7 never
#                     compile, so only this step sees an internal API
#                     change break the benchmark.
#
# The script is plain POSIX sh with no interactive steps, so CI runs it
# verbatim (.github/workflows/ci.yml). It needs only a Go toolchain on
# PATH matching go.mod's directive (go >= 1.22; developed and CI-tested
# on go1.24).
set -eu
cd "$(dirname "$0")"

echo "== gofmt"
unformatted=$(gofmt -l .)
if [ -n "$unformatted" ]; then
    echo "gofmt needed on:" >&2
    echo "$unformatted" >&2
    exit 1
fi

echo "== go vet"
go vet ./...

echo "== go build"
go build ./...
if grep -rn 'node\.Unmarshal\|readNode' --include='*.go' --exclude='*_test.go' --exclude-dir=bench --exclude-dir=.bench_build . | grep -v '^./internal/node/'; then echo "library code reads pages through node.View only" >&2; exit 1; fi
if grep -rn 'node\.Marshal' --include='*.go' --exclude='*_test.go' --exclude-dir=bench --exclude-dir=.bench_build . | grep -v '^./internal/node/\|^./internal/rtree/check\.go:'; then echo "library code writes pages from records; only Check's round trip may call node.Marshal" >&2; exit 1; fi
if grep -rn 'splitLinear\|splitQuadratic\|distribute(\|splitRStar\|NewPoolWithPolicy\|evictClock\|SetResident\|Serpentine\|SliceFactor\|buffer\.Sharded\|type Sharded' --include='*.go' --exclude='*_test.go' --exclude-dir=.bench_build .; then echo "a retired variant is back outside _test.go: a node overflows by the tile cut, the buffer evicts by LRU and is one type, STR slices one way (DESIGN.md, Tried and dropped)" >&2; exit 1; fi
if grep -nw 'node\.Entry' internal/extsort/*.go internal/pack/external.go internal/rtree/stream.go | grep -v '_test\.go:\|^internal/extsort/entries\.go:'; then echo "the external build moves page records, not node.Entry values; only extsort's Sort adapter (entries.go) takes entries" >&2; exit 1; fi

echo "== strlint"
strlint_start=$(date +%s)
go run ./cmd/strlint ./...
echo "strlint: $(($(date +%s) - strlint_start)) s wall, building it included"

echo "== go test"
go test ./...

echo "== go test -race (buffer, pack, psort, extsort, query, server, router, histo, obs, lint, mutation oracle, write-behind builds, concurrent root tests)"
go test -race ./internal/buffer/... ./internal/pack/... ./internal/psort/... ./internal/extsort/... ./internal/query/... ./internal/server/... ./internal/router/... ./internal/histo/... ./internal/obs/... ./internal/lint/...
go test -race -run 'Mutate|ConcurrentReaders|BulkLoad' ./internal/rtree
go test -race -run 'Concurrent|Batch|Sharded|View|Mutate|Parallel|BulkLoad' .

echo "== go test -bench -benchtime 1x (node BenchmarkViewScan, rtree BenchmarkCount1pct, BenchmarkCount1pctCold, BenchmarkNearestK10 and BenchmarkInsertPacked, psort BenchmarkByCenter, pack BenchmarkSTROrder100k, root BenchmarkBulkLoad500k, BenchmarkMutateChurn and BenchmarkBuildExternal, router BenchmarkRoutedRoundTrip)"
go test -run '^$' -bench '^BenchmarkViewScan$' -benchtime 1x ./internal/node
go test -run '^$' -bench '^(BenchmarkCount1pct|BenchmarkCount1pctCold|BenchmarkNearestK10|BenchmarkInsertPacked)$' -benchtime 1x ./internal/rtree
go test -run '^$' -bench '^BenchmarkByCenter$' -benchtime 1x ./internal/psort
go test -run '^$' -bench '^BenchmarkSTROrder100k$' -benchtime 1x ./internal/pack
go test -run '^$' -bench '^BenchmarkBulkLoad500k$' -benchtime 1x .
go test -run '^$' -bench '^BenchmarkMutateChurn$' -benchtime 1x .
go test -run '^$' -bench '^BenchmarkBuildExternal$' -benchtime 1x .
go test -run '^$' -bench '^BenchmarkRoutedRoundTrip$' -benchtime 1x ./internal/router

echo "== ledger module (bench/): go vet, smoke run of every workload"
./scripts/ledger.sh

echo "All checks passed."
