#!/bin/sh
# check.sh — the repository's extended tier-1 gate (see ROADMAP.md).
# Everything here must pass before a change lands:
#
#   1. gofmt          every .go file is formatted
#   2. go vet         the standard analyzer suite (strlint repeats none
#                     of it: loop-variable capture is vet's loopclosure,
#                     locks copied by value are vet's copylocks), then two
#                     cross-vets from GOROOT, offline: GOARCH=386 over the
#                     whole module (it must compile where int is 32 bits)
#                     and GOOS=darwin over internal/storage — the unmapped
#                     read path (mmap_other.go), which no linux/amd64 build
#                     compiles
#   3. go build       the whole module compiles, and greps: no non-test
#                     .go file outside internal/node and bench/ mentions
#                     node.Unmarshal or readNode — library code reads a
#                     page through node.View only, so the second decoder
#                     cannot creep back — none outside internal/node and
#                     bench/ mentions node.Marshal — every page the library
#                     writes is filled from page records (node.FillRecords,
#                     MutableView), and Check's round trip re-fills each
#                     page from its own records the same way, so nothing
#                     stages node.Nodes again —
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
#                     one buffer type at any shard count), parallelPass
#                     (the sort splits on its top digit, then finishes
#                     each bucket in cache), fillPage( (a build writes
#                     runs of pages past the pool, pinning no frame) and
#                     the wrappers beside Tree and the many-trees-per-pager
#                     plumbing under them: SafeTree, NewSafe, NewCollection,
#                     Collection[, LayerSet, NewLayers, CreateLayers,
#                     OpenLayers, CreateAt and OpenAt (a pager holds one
#                     tree, whose meta page is page 0; geojson.Collection(
#                     is a reader, not a wrapper, and passes) —
#                     and a fourth:
#                     the external build holds page records from source
#                     to leaf, so no non-test file of internal/extsort but
#                     entries.go (Sorter.Sort, the one entry adapter),
#                     internal/pack/external.go or internal/rtree/stream.go
#                     mentions node.Entry — and a fifth: the serving
#                     proofs are tests, so no non-test .go file mentions
#                     selftest, adminsmoke or seriesexpect in any letter
#                     case (the deleted in-process harnesses, their config
#                     structs, flags and admin smoke); the
#                     load, admin, identity, pruning and kill assertions
#                     are internal/server's TestServerMutateConcurrent…
#                     and TestAdmin… and internal/router's
#                     TestRoutedTopology — and a sixth: each page-record
#                     question has one kernel in internal/node (a k = 2
#                     arm and one strided loop), so no non-test .go file
#                     names a retired copy — unionRecords,
#                     leastEnlargementEach, mbrInto, unionRecord(,
#                     recordRect(, recordCenter(, RecordValid — and none
#                     outside internal/node and bench/ calls the per-entry
#                     references IntersectsQuery( or .MinDist(
#                     — and a seventh: wall-clock numbers have one harness
#                     (bench/) and a tree one parallel read path, so no .go
#                     file names STRTiming, SearchBatchCountTimed,
#                     BatchExecutor, runBuildBench, runConcurrency,
#                     ErrReadOnly or func (t *Tree) View( (strbench's
#                     -build and -concurrency modes, the hooks only they
#                     called, the batch executor struct and Tree.View)
#                     — and an eighth: fanning independent work out over
#                     goroutines is one loop, internal/par's Each, so no
#                     .go file names forEachSlab(, eachChunk( or the
#                     retired context twins SearchPointContext and
#                     NearestContext(, and no file of internal/psort or
#                     internal/query, nor internal/pack/pack.go,
#                     internal/pack/tgs.go, internal/rtree/build.go,
#                     internal/rtree/stream.go, internal/lint/lint.go or
#                     cmd/strbench/main.go (the
#                     -j experiment runner), declares a sync.WaitGroup
#                     or a semaphore channel, make(chan struct{}, or
#                     starts a goroutine of its own, go func —
#                     and a ninth: the root
#                     API keeps only what its callers call, so no non-test
#                     .go file names SearchWithin, DeleteRange, SaveTo(,
#                     DumpDOT, JoinWithin or joinNear (the containment
#                     query, range delete, backup, Graphviz dump and
#                     within-distance join no caller outside a test used;
#                     api_test.go pins the rest of the surface) — and a
#                     tenth: the tools run the one way their callers run
#                     them, so no .go file names ApplyFixes, Fixable,
#                     resolvePatterns, RunTrials, trace.Load or
#                     traceMagic (strlint's autofix engine and package
#                     patterns, strbench's -trials averaging, and the
#                     trace file strload trace no longer writes) — and an
#                     eleventh: the external merge reads each spilled run
#                     on the goroutine that pulls the stream, so no file
#                     of internal/extsort names runBatch, rwg, spentBy or
#                     prefetch (the per-run reader goroutines, the batches
#                     they sent, their join and the batch hand-back) — and
#                     a twelfth: the external build's goroutines are the
#                     stages DESIGN.md §11 names, so
#                     internal/pack/external.go starts exactly two, go func
#                     (the read-ahead that merges a last-axis slab and the
#                     slab's sort), and internal/extsort/extsort.go exactly
#                     one (the spill pool) — and a thirteenth: the leaf
#                     level has one path, so packUp( has exactly one call
#                     site outside its definition, in the leaf loader (load,
#                     internal/rtree/build.go), and BulkLoadFunc calls
#                     neither packUp( nor p.pack(: BulkLoad and
#                     BulkLoadOrdered both reach the leaves through load
#                     — and a fourteenth: a batch is par.Each over its
#                     queries and a kept answer leaves the tree through
#                     one collecting read (rtree's Collect), so no .go
#                     file names ExecMetrics, BatchExecStats or query.Run(
#                     (the batch executor, its gauges and the tree's
#                     accessor for them), and no file of internal/geom
#                     declares ) Clone(r Rect) (the slab's per-rectangle
#                     clone the hand-written collectors called) — and a
#                     fifteenth: the router forwards search, point and
#                     batch answers as the bytes it scanned, so no non-test
#                     file of internal/router calls concat( (the []Item
#                     merge) or ParseResponse (its backend round trip is
#                     Client.Relay, which scans)
#   4. strlint        the repo's own static analyzer (internal/lint),
#                     over the whole module (it takes no arguments),
#                     all nine checks plus its directive validator:
#                     float ==, dropped errors, library panics,
#                     cross-layer imports, map-order and time/rand
#                     determinism, guarded-by lock discipline, goroutine
#                     completion signals, context propagation — at zero
#                     findings: a finding is suppressed only by a reasoned
#                     //strlint:ignore on the line it covers. It type-checks the module
#                     with go/types, the standard library from source, so
#                     the step takes seconds, not milliseconds; its wall
#                     time is printed.
#   5. go test        the full test suite (includes the structural
#                     verifier's corrupted-tree fixtures in internal/rtree,
#                     the fuzz seed corpora, and ci_names_test.go: every
#                     -run, -bench and -fuzz name this script and the two
#                     workflows run exists, since go test exits 0 on a
#                     pattern that matches nothing)
#   6. go test -race  the concurrency-sensitive packages: the fan-out loop
#                     (internal/par), the buffer pool
#                     (incl. the sharded pool's eviction hammer and the
#                     write-pin protocol), the packers, the parallel sort
#                     kernel, the concurrent external sorter, the query
#                     server (admission, deadlines,
#                     drain, admin scrapes, mutation/query exclusion, a
#                     32-client load with no request failed),
#                     the lock-free latency histogram, the metrics
#                     registry (updates racing expositions), the lint
#                     engine (parallel per-package driver), the fan-out
#                     router (scatter-gather, health probing, drain, the
#                     routed-topology identity, pruning and kill proof), the
#                     dynamic write path's differential oracle harness
#                     (internal/rtree …Mutate… and the root-package
#                     equivalent), internal/rtree's cold-buffer concurrent
#                     readers over a sharded pool (…ConcurrentReaders…: the
#                     per-frame validation mark read and set by racing
#                     traversals), the bulk loader's parallel run packer
#                     — workers sharing a level's parent records, the
#                     turn counter that orders their writes, the buffer
#                     pool and the pager (internal/rtree …BulkLoad…, the
#                     root package's …BulkLoad…, TestBulkLoadWriteSequence
#                     among them, and …Parallel…BuildByteIdentical) — and
#                     the root package's concurrent Search/SearchBatch
#                     tests (the batch's order, empty batch, first error
#                     and stress tests among them), and internal/storage (four readers of a
#                     FilePager's mapping beside a writer that grows it). The zero-alloc gates
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
#                     kernel) and BenchmarkSortPairs (the kernel alone,
#                     ns/pair, at one leaf slab's 7 242 pairs and at a
#                     500 000-pair first-axis sort, workers 1 and 2),
#                     internal/pack's BenchmarkSTROrder100k
#                     (STR's one-permutation order) and BenchmarkSTRExternal
#                     (the external STR stream alone at the ledger's
#                     external shape: 131 072 squares, RunSize 16 384 at
#                     Workers 1 and 2, and a nospill case), the root package's
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
#                     request at fan-out 1 and 3), internal/storage's
#                     BenchmarkFilePagerReadPage (one miss below the pool:
#                     a random page of a 9 902-page file, ns/page) and
#                     internal/buffer's BenchmarkFetchHitWide (one hit in
#                     the pool with query_hot's shape: 16 384 frames over
#                     9 902 pages, random ids, ns/op).
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

echo "== go vet (and cross-vets: GOARCH=386 over the module, GOOS=darwin over internal/storage)"
go vet ./...
GOARCH=386 go vet ./...
GOOS=darwin go vet ./internal/storage

echo "== go build"
go build ./...
if grep -rn 'node\.Unmarshal\|readNode' --include='*.go' --exclude='*_test.go' --exclude-dir=bench --exclude-dir=.bench_build . | grep -v '^./internal/node/'; then echo "library code reads pages through node.View only" >&2; exit 1; fi
if grep -rn 'node\.Marshal' --include='*.go' --exclude='*_test.go' --exclude-dir=bench --exclude-dir=.bench_build . | grep -v '^./internal/node/'; then echo "library code writes pages from records (node.FillRecords, MutableView), and Check re-fills a page to compare it: no library code calls node.Marshal" >&2; exit 1; fi
if grep -rn 'splitLinear\|splitQuadratic\|distribute(\|splitRStar\|NewPoolWithPolicy\|evictClock\|SetResident\|Serpentine\|SliceFactor\|buffer\.Sharded\|type Sharded\|parallelPass\|fillPage(\|SafeTree\|NewSafe\|NewCollection\|Collection\[\|LayerSet\|NewLayers\|CreateLayers\|OpenLayers\|CreateAt\|OpenAt' --include='*.go' --exclude='*_test.go' --exclude-dir=.bench_build .; then echo "a retired variant is back outside _test.go: a node overflows by the tile cut, the buffer evicts by LRU and is one type, STR slices one way, the sort splits on its top digit, a build writes page runs past the pool, Tree is the one tree type and a pager holds one tree (DESIGN.md, Tried and dropped)" >&2; exit 1; fi
if grep -nw 'node\.Entry' internal/extsort/*.go internal/pack/external.go internal/rtree/stream.go | grep -v '_test\.go:\|^internal/extsort/entries\.go:'; then echo "the external build moves page records, not node.Entry values; only extsort's Sort adapter (entries.go) takes entries" >&2; exit 1; fi

if grep -rni 'selftest\|adminsmoke\|seriesexpect' --include='*.go' --exclude='*_test.go' --exclude-dir=.bench_build .; then echo "the serving proofs are tests (internal/server, internal/router _test.go files), not a harness in the library or a flag of a binary" >&2; exit 1; fi

if grep -rn 'unionRecords\|leastEnlargementEach\|mbrInto\|unionRecord(\|recordRect(\|recordCenter(\|RecordValid' --include='*.go' --exclude='*_test.go' --exclude-dir=.bench_build .; then echo "a retired copy of a page-record kernel is back outside _test.go: the MBR of a run of records is node.UnionRecords, a record's centre node.RecordCenter, its validity node.FirstInvalid, and each View kernel is a k = 2 arm plus one strided loop" >&2; exit 1; fi
if grep -rn 'IntersectsQuery(\|\.MinDist(' --include='*.go' --exclude='*_test.go' --exclude-dir=bench --exclude-dir=.bench_build . | grep -v '^./internal/node/'; then echo "IntersectsQuery and MinDist are per-entry references for tests and bench/: library code asks a page with AppendIntersecting, AppendMatches or AppendMinDist" >&2; exit 1; fi
if grep -rn 'STRTiming\|SearchBatchCountTimed\|BatchExecutor\|runBuildBench\|runConcurrency\|ErrReadOnly\|func (t \*Tree) View(' --include='*.go' --exclude-dir=.bench_build .; then echo "a retired harness or read path is back: wall-clock numbers come from bench/ and the root benchmarks at -cpu, a batch is par.Each over its queries, and a *Tree serves concurrent readers itself (DESIGN.md, Tried and dropped)" >&2; exit 1; fi
if grep -rn 'ExecMetrics\|BatchExecStats\|query\.Run(' --include='*.go' --exclude-dir=.bench_build . || grep -rn ') Clone(r Rect)' internal/geom; then echo "a retired collector or batch executor is back: a batch is par.Each over its queries with no gauges, and a kept answer is copied out once, by rtree's collecting read (DESIGN.md §6, §10)" >&2; exit 1; fi
if grep -rn 'forEachSlab(\|eachChunk(\|SearchPointContext\|NearestContext(' --include='*.go' --exclude-dir=.bench_build .; then echo "a retired worker pool or context twin is back: independent work fans out through par.Each (par.Chunks for static ranges), a point query under a context is SearchContext on a degenerate rectangle, and a nearest query under a context is NearestKContext (DESIGN.md §10)" >&2; exit 1; fi
if grep -rn 'sync\.WaitGroup\|make(chan struct{}\|go func' internal/psort internal/query internal/pack/pack.go internal/pack/tgs.go internal/rtree/build.go internal/rtree/stream.go internal/lint/lint.go cmd/strbench/main.go; then echo "the sort kernel, STR, TGS, the bulk loader's page runs, query.Run, lint.Run and strbench's -j runner fan out through par.Each; none keeps a WaitGroup, a semaphore or goroutines of its own (DESIGN.md §10)" >&2; exit 1; fi
if grep -rn 'SearchWithin\|DeleteRange\|SaveTo(\|DumpDOT\|JoinWithin\|joinNear' --include='*.go' --exclude='*_test.go' --exclude-dir=.bench_build .; then echo "a root entry point no caller outside a test used is back: containment is Search plus Rect.Contains, a range delete is Search then Delete, a backup is Create plus CompactInto, Join is the one join (DESIGN.md §17)" >&2; exit 1; fi
if grep -rn 'ApplyFixes\|Fixable\|resolvePatterns\|RunTrials\|trace\.Load\|traceMagic' --include='*.go' --exclude-dir=.bench_build .; then echo "a retired tool mode is back: strlint checks the whole module with every check and rewrites nothing, strbench runs each experiment once, and strload trace replays its trace in memory (DESIGN.md §14)" >&2; exit 1; fi
if grep -rn 'runBatch\|rwg\|spentBy\|prefetch' internal/extsort; then echo "a retired merge reader is back: each spilled run is read, two batches in turn, on the goroutine that pulls the stream (DESIGN.md §11, §17)" >&2; exit 1; fi
if [ "$(grep -c 'go func' internal/pack/external.go)" -ne 2 ] || [ "$(grep -c 'go func' internal/extsort/extsort.go)" -ne 1 ]; then echo "the external build's goroutines are the stages DESIGN.md §11 names: pack/external.go starts the read-ahead and the slab sort, extsort.go the spill pool, and no other" >&2; exit 1; fi
if grep -rn 'concat(\|ParseResponse' --include='*.go' --exclude='*_test.go' internal/router; then echo "the router joins shard answers as bytes: its round trip is Client.Relay (wire.ScanResponse) and a merge of lists is wire.JoinLists, never parsed items concatenated and re-encoded (DESIGN.md §5)" >&2; exit 1; fi
packup_calls=$(grep -rn 'packUp(' --include='*.go' --exclude-dir=.bench_build . | grep -v ':[[:space:]]*//' | grep -v 'func (t \*Tree) packUp(' || true)
if [ "$(echo "$packup_calls" | grep -c .)" -ne 1 ] ||
    ! awk '/^func \(t \*Tree\) load\(/ {f = 1} f && /^}/ {f = 0} f && /packUp\(/ {n++} END {exit (n != 1)}' internal/rtree/build.go ||
    awk '/^func \(t \*Tree\) BulkLoadFunc\(/ {f = 1} f && /^}/ {f = 0} f && /packUp\(|\.pack\(/ {n++} END {exit (n == 0)}' internal/rtree/build.go; then
    echo "the leaf level has one path: packUp( is called once, by the leaf loader (load in internal/rtree/build.go), and BulkLoadFunc reaches the leaves through load, calling neither packUp( nor p.pack( (DESIGN.md §10); calls: $packup_calls" >&2; exit 1
fi

echo "== strlint"
strlint_start=$(date +%s)
go run ./cmd/strlint
echo "strlint: $(($(date +%s) - strlint_start)) s wall, building it included"

echo "== go test"
go test ./...

echo "== go test -race (par, storage, buffer, pack, psort, extsort, query, server, router, histo, obs, lint, mutation oracle, parallel run packing, concurrent root tests)"
go test -race ./internal/par/... ./internal/storage/... ./internal/buffer/... ./internal/pack/... ./internal/psort/... ./internal/extsort/... ./internal/query/... ./internal/server/... ./internal/router/... ./internal/histo/... ./internal/obs/... ./internal/lint/...
go test -race -run 'Mutate|ConcurrentReaders|BulkLoad' ./internal/rtree
go test -race -run 'Concurrent|Batch|Sharded|View|Mutate|Parallel|BulkLoad' .

echo "== go test -bench -benchtime 1x (node BenchmarkViewScan, rtree BenchmarkCount1pct, BenchmarkCount1pctCold, BenchmarkNearestK10 and BenchmarkInsertPacked, psort BenchmarkByCenter and BenchmarkSortPairs, pack BenchmarkSTROrder100k and BenchmarkSTRExternal, root BenchmarkBulkLoad500k, BenchmarkMutateChurn and BenchmarkBuildExternal, router BenchmarkRoutedRoundTrip, storage BenchmarkFilePagerReadPage, buffer BenchmarkFetchHitWide)"
go test -run '^$' -bench '^BenchmarkViewScan$' -benchtime 1x ./internal/node
go test -run '^$' -bench '^(BenchmarkCount1pct|BenchmarkCount1pctCold|BenchmarkNearestK10|BenchmarkInsertPacked)$' -benchtime 1x ./internal/rtree
go test -run '^$' -bench '^(BenchmarkByCenter|BenchmarkSortPairs)$' -benchtime 1x ./internal/psort
go test -run '^$' -bench '^(BenchmarkSTROrder100k|BenchmarkSTRExternal)$' -benchtime 1x ./internal/pack
go test -run '^$' -bench '^BenchmarkBulkLoad500k$' -benchtime 1x .
go test -run '^$' -bench '^BenchmarkMutateChurn$' -benchtime 1x .
go test -run '^$' -bench '^BenchmarkBuildExternal$' -benchtime 1x .
go test -run '^$' -bench '^BenchmarkRoutedRoundTrip$' -benchtime 1x ./internal/router
go test -run '^$' -bench '^BenchmarkFilePagerReadPage$' -benchtime 1x ./internal/storage
go test -run '^$' -bench '^BenchmarkFetchHitWide$' -benchtime 1x ./internal/buffer

echo "== ledger module (bench/): go vet, smoke run of every workload"
./scripts/ledger.sh

echo "All checks passed."
