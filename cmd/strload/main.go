// Command strload builds and queries persistent STR-tree index files from
// CSV rectangle data.
//
// Usage:
//
//	strload build -in rects.csv -out index.str [-pack STR|HS|NX|TGS] [-cap 100] [-workers N] [-metrics]
//	strload build -in rects.csv -out index.str -shards 3
//	strload query -idx index.str -rect x0,y0,x1,y1 [-buffer 256]
//	strload stats -idx index.str
//	strload mutate -idx index.str [-ops 1000] [-seed 1] [-verify]
//	strload gen [-set uniform] [-n 0] [-seed 1] [-out rects.csv]
//	strload trace -idx index.str [-queries 2000] [-extent 0.1] [-seed 1] [-buffers 10,25,50,100,250]
//
// The CSV rows are "x0,y0,x1,y1[,id]"; a missing id defaults to the row
// number. -wkt and -geojson read WKT lines and GeoJSON documents instead;
// -external takes CSV or WKT. A malformed row fails every build, naming
// the file and the row. Without -shards the index is written beside -out
// and renamed over it, so a failed build leaves -out as it was. Query
// prints one matching item per line (id and rectangle) followed by the
// disk-access count for the query. -metrics appends an
// end-of-build JSON report with phase times, pages written, external-sort
// spill counts and buffer I/O counters.
// -shards N STR-partitions the dataset into N spatial slabs, builds one
// index file per slab and writes a shards.json manifest for the
// multi-node pipeline (strserve -map/-shard behind strrouter). Mutate is
// the dynamic write path's smoke: it applies a seeded random insert/
// delete sequence to the index in place (replayable by seed), verifies
// the structural invariants, and prints how many ops took the in-place
// page-patch path versus the structural split/condense path. Gen writes
// one of the paper's data-set families as build's CSV (gen.go); trace
// records an index's page accesses under the paper's region queries and
// prints their per-query misses under LRU, Clock and Belady's OPT
// (trace.go).
package main

import (
	"bufio"
	"cmp"
	"encoding/csv"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math/rand"
	"os"
	"strconv"
	"strings"

	"strtree"
	"strtree/internal/geojson"
	"strtree/internal/wkt"
)

func main() {
	if len(os.Args) < 2 {
		usage()
	}
	var err error
	switch os.Args[1] {
	case "build":
		err = runBuild(os.Args[2:])
	case "query":
		err = runQuery(os.Args[2:])
	case "stats":
		err = runStats(os.Args[2:])
	case "mutate":
		err = runMutate(os.Args[2:])
	case "gen":
		err = runGen(os.Args[2:])
	case "trace":
		err = runTrace(os.Stdout, os.Args[2:])
	default:
		usage()
	}
	if err != nil {
		fmt.Fprintf(os.Stderr, "strload: %v\n", err)
		os.Exit(1)
	}
}

func usage() {
	fmt.Fprintln(os.Stderr, "usage: strload build|query|stats|mutate|gen|trace [flags]")
	os.Exit(2)
}

// packingNames lists the library's packings by Packing.String, in enum
// order: the values are dense from 0 and the first without a name of its own
// ends them, so the tool offers exactly what the library has.
func packingNames() []string {
	var names []string
	for p := strtree.Packing(0); ; p++ {
		if p.String() == fmt.Sprintf("Packing(%d)", int(p)) {
			return names
		}
		names = append(names, p.String())
	}
}

// parsePacking resolves a -pack value, case-insensitively.
func parsePacking(name string) (strtree.Packing, error) {
	names := packingNames()
	for p, n := range names {
		if strings.EqualFold(n, name) {
			return strtree.Packing(p), nil
		}
	}
	return 0, fmt.Errorf("build: unknown packing %q (have %s)", name, strings.Join(names, ", "))
}

func runBuild(args []string) error {
	fs := flag.NewFlagSet("build", flag.ExitOnError)
	in := fs.String("in", "", "input CSV of rectangles (x0,y0,x1,y1[,id])")
	wktIn := fs.String("wkt", "", "input file of WKT geometries, one per line (optional leading \"id<TAB>\")")
	geojsonIn := fs.String("geojson", "", "input GeoJSON file (FeatureCollection, Feature, or Geometry)")
	out := fs.String("out", "index.str", "output index file")
	packName := fs.String("pack", "STR", "packing algorithm: "+strings.Join(packingNames(), ", "))
	capacity := fs.Int("cap", 100, "node capacity (entries per page)")
	external := fs.Bool("external", false, "bounded-memory STR build (for inputs larger than RAM; STR only; reads -in or -wkt a line at a time)")
	runSize := fs.Int("runsize", 1<<20, "max items in memory during an -external build")
	workers := fs.Int("workers", 0, "goroutines for the build's sort and page-write phases (0 = GOMAXPROCS); the index bytes are identical for every value")
	verify := fs.Bool("verify", false, "after building, re-walk the index and check every structural invariant (balance, MBR tightness, packed fill, page round-trips)")
	metricsOut := fs.Bool("metrics", false, "print an end-of-build JSON metrics report (phase times, pages, external-sort spills, I/O counters)")
	shards := fs.Int("shards", 0, "split the dataset into N spatial shards by STR slab partitioning: writes one index file per shard plus a shards.json manifest for strserve -map and strrouter (STR packing, in-memory build only)")
	fs.Parse(args)
	inputs := 0
	for _, s := range []string{*in, *wktIn, *geojsonIn} {
		if s != "" {
			inputs++
		}
	}
	if inputs != 1 {
		return fmt.Errorf("build: exactly one of -in, -wkt or -geojson is required")
	}
	if *external && *geojsonIn != "" {
		return fmt.Errorf("build: -external reads -in CSV or -wkt a line at a time; -geojson is parsed whole and needs the in-memory build")
	}

	packing, err := parsePacking(*packName)
	if err != nil {
		return err
	}
	if *external && packing != strtree.PackSTR {
		return fmt.Errorf("build: -external is a bounded-memory STR build; -pack %s needs the in-memory build", packing)
	}
	if *shards > 0 {
		if *external {
			return fmt.Errorf("build: -shards requires an in-memory build (drop -external)")
		}
		if packing != strtree.PackSTR {
			return fmt.Errorf("build: -shards partitions by STR slabs and packs each shard by STR; -pack %s is not supported with it", packing)
		}
		items, err := readInput(*in, *wktIn, *geojsonIn)
		if err != nil {
			return err
		}
		return buildShards(items, *out, *shards, *capacity, *workers, *verify)
	}

	// The index is built beside -out and renamed over it once complete, so
	// a build that fails leaves the index already at -out as it was. The
	// deferred remove deletes a failed build's file; after the rename there
	// is none, and a failed build reports its own error, not the remove's.
	tmpPath := *out + ".tmp"
	defer func() { _ = os.Remove(tmpPath) }()
	tree, err := strtree.Create(tmpPath, strtree.Options{Capacity: *capacity, Workers: *workers})
	if err != nil {
		return err
	}
	if *external {
		err = loadExternal(tree, *in, *wktIn, *runSize)
	} else {
		var items []strtree.Item
		if items, err = readInput(*in, *wktIn, *geojsonIn); err == nil {
			err = tree.BulkLoad(items, packing)
		}
	}
	if err != nil {
		tree.Close()
		return err
	}
	if *verify {
		if err := tree.CheckPackedInvariants(); err != nil {
			tree.Close()
			return fmt.Errorf("build: verification failed: %w", err)
		}
	}
	h := tree.Height()
	n := tree.Len()
	report := buildReport(tree, n, h, packing, *external)
	if err := tree.Close(); err != nil {
		return err
	}
	if err := os.Rename(tmpPath, *out); err != nil {
		return err
	}
	fmt.Printf("built %s: %d items, height %d, packing %s", *out, n, h, packing)
	if *verify {
		fmt.Print(", invariants verified")
	}
	fmt.Println()
	if *metricsOut {
		enc, err := json.MarshalIndent(report, "", "  ")
		if err != nil {
			return err
		}
		fmt.Println(string(enc))
	}
	return nil
}

// buildMetrics is the -metrics JSON report: what the observability layer
// sees of one build — phase times, pages written, external-sort spills,
// and the buffer's I/O counters. Durations are in seconds to
// match the serving layer's Prometheus convention.
type buildMetrics struct {
	Items   int    `json:"items"`
	Height  int    `json:"height"`
	Packing string `json:"packing"`
	Build   struct {
		OrderSeconds float64 `json:"order_seconds"`
		WriteSeconds float64 `json:"write_seconds"`
		Pages        int     `json:"pages"`
	} `json:"build"`
	ExtSort *struct {
		Sorts         uint64 `json:"sorts"`
		EntriesSorted uint64 `json:"entries_sorted"`
		RunsSpilled   uint64 `json:"runs_spilled"`
		Merges        uint64 `json:"merges"`
	} `json:"extsort,omitempty"`
	IO struct {
		LogicalReads int64 `json:"logical_reads"`
		DiskReads    int64 `json:"disk_reads"`
		DiskWrites   int64 `json:"disk_writes"`
		Evictions    int64 `json:"evictions"`
	} `json:"io"`
}

// buildReport snapshots the tree's build statistics; it must run before
// Close invalidates the handle.
func buildReport(tree *strtree.Tree, n, h int, packing strtree.Packing, external bool) buildMetrics {
	var m buildMetrics
	m.Items = n
	m.Height = h
	m.Packing = packing.String()
	bs := tree.LastBuildStats()
	m.Build.OrderSeconds = bs.Order.Seconds()
	m.Build.WriteSeconds = bs.Write.Seconds()
	m.Build.Pages = bs.Pages
	if external {
		es := tree.LastExternalSortStats()
		m.ExtSort = &struct {
			Sorts         uint64 `json:"sorts"`
			EntriesSorted uint64 `json:"entries_sorted"`
			RunsSpilled   uint64 `json:"runs_spilled"`
			Merges        uint64 `json:"merges"`
		}{es.Sorts, es.EntriesSorted, es.RunsSpilled, es.Merges}
	}
	io := tree.Stats()
	m.IO.LogicalReads = io.LogicalReads
	m.IO.DiskReads = io.DiskReads
	m.IO.DiskWrites = io.DiskWrites
	m.IO.Evictions = io.Evictions
	return m
}

func runQuery(args []string) error {
	fs := flag.NewFlagSet("query", flag.ExitOnError)
	idx := fs.String("idx", "index.str", "index file")
	rect := fs.String("rect", "", "query rectangle x0,y0,x1,y1")
	bufPages := fs.Int("buffer", 256, "buffer pool pages")
	fs.Parse(args)
	if *rect == "" {
		return fmt.Errorf("query: -rect is required")
	}
	q, err := parseRect(*rect)
	if err != nil {
		return err
	}

	tree, err := strtree.Open(*idx, strtree.Options{BufferPages: *bufPages})
	if err != nil {
		return err
	}
	defer tree.Close()
	tree.ResetStats()
	n := 0
	err = tree.Search(q, func(it strtree.Item) bool {
		fmt.Printf("%d\t%v\n", it.ID, it.Rect)
		n++
		return true
	})
	if err != nil {
		return err
	}
	s := tree.Stats()
	fmt.Printf("# %d results, %d disk accesses (%d page requests)\n", n, s.DiskReads, s.LogicalReads)
	return nil
}

func runStats(args []string) error {
	fs := flag.NewFlagSet("stats", flag.ExitOnError)
	idx := fs.String("idx", "index.str", "index file")
	verify := fs.Bool("verify", false, "also re-walk the index and check the universal structural invariants (an index mutated since its build may legitimately fail the packed fill factor, so that check is skipped here)")
	fs.Parse(args)
	tree, err := strtree.Open(*idx, strtree.Options{})
	if err != nil {
		return err
	}
	defer tree.Close()
	if *verify {
		if err := tree.CheckInvariants(); err != nil {
			return fmt.Errorf("stats: verification failed: %w", err)
		}
		fmt.Println("invariants:      ok")
	}
	m, err := tree.Metrics()
	if err != nil {
		return err
	}
	fmt.Printf("items:           %d\n", tree.Len())
	fmt.Printf("height:          %d\n", tree.Height())
	fmt.Printf("capacity:        %d entries/node\n", tree.Capacity())
	fmt.Printf("nodes:           %d (%d leaves)\n", m.Nodes, m.LeafNodes)
	fmt.Printf("leaf area:       %.4f\n", m.LeafArea)
	fmt.Printf("leaf perimeter:  %.4f\n", m.LeafPerimeter)
	fmt.Printf("total area:      %.4f\n", m.TotalArea)
	fmt.Printf("total perimeter: %.4f\n", m.TotalPerimeter)
	return nil
}

// runMutate applies a seeded random insert/delete sequence to an index
// in place — the dynamic write path's command-line smoke. The sequence
// is fully determined by -seed, so a failure replays exactly.
func runMutate(args []string) error {
	fs := flag.NewFlagSet("mutate", flag.ExitOnError)
	idx := fs.String("idx", "index.str", "index file (mutated in place)")
	ops := fs.Int("ops", 1000, "mutation ops to apply")
	seed := fs.Int64("seed", 1, "op-sequence seed; the same seed replays the same sequence")
	pInsert := fs.Float64("p-insert", 0.5, "probability an op is an insert (deletes pick a random live item)")
	bufPages := fs.Int("buffer", 256, "buffer pool pages")
	verify := fs.Bool("verify", false, "re-check every structural invariant after every op (slow) instead of once at the end")
	fs.Parse(args)
	if *ops < 1 {
		return fmt.Errorf("mutate: -ops must be positive")
	}

	tree, err := strtree.Open(*idx, strtree.Options{BufferPages: *bufPages})
	if err != nil {
		return err
	}
	defer tree.Close()

	// The live-item list doubles as the delete pool and keeps inserted
	// IDs unique above everything already in the index.
	live := make([]strtree.Item, 0, tree.Len())
	if err := tree.Scan(func(it strtree.Item) bool {
		it.Rect = it.Rect.Clone()
		live = append(live, it)
		return true
	}); err != nil {
		return err
	}
	nextID := uint64(1)
	for _, it := range live {
		if it.ID >= nextID {
			nextID = it.ID + 1
		}
	}
	bounds, ok, err := tree.Bounds()
	if err != nil {
		return err
	}
	if !ok {
		bounds = strtree.R2(0, 0, 1, 1)
	}

	rng := rand.New(rand.NewSource(*seed))
	randRect := func() strtree.Rect {
		min := make(strtree.Point, tree.Dims())
		max := make(strtree.Point, tree.Dims())
		for d := range min {
			span := bounds.Max[d] - bounds.Min[d]
			if span <= 0 {
				span = 1
			}
			lo := bounds.Min[d] + rng.Float64()*span
			min[d], max[d] = lo, lo+rng.Float64()*span/20
		}
		return strtree.Rect{Min: min, Max: max}
	}

	inserts, deletes := 0, 0
	for op := 0; op < *ops; op++ {
		if len(live) == 0 || rng.Float64() < *pInsert {
			it := strtree.Item{Rect: randRect(), ID: nextID}
			nextID++
			if err := tree.Insert(it.Rect, it.ID); err != nil {
				return fmt.Errorf("mutate: op %d: insert: %w", op, err)
			}
			live = append(live, it)
			inserts++
		} else {
			i := rng.Intn(len(live))
			it := live[i]
			found, err := tree.Delete(it.Rect, it.ID)
			if err != nil {
				return fmt.Errorf("mutate: op %d: delete: %w", op, err)
			}
			if !found {
				return fmt.Errorf("mutate: op %d: live item id %d not found — index corrupt", op, it.ID)
			}
			live[i] = live[len(live)-1]
			live = live[:len(live)-1]
			deletes++
		}
		if *verify {
			if err := tree.CheckInvariants(); err != nil {
				return fmt.Errorf("mutate: op %d: invariants violated: %w", op, err)
			}
		}
	}
	if err := tree.CheckInvariants(); err != nil {
		return fmt.Errorf("mutate: final invariant check failed: %w", err)
	}
	if tree.Len() != len(live) {
		return fmt.Errorf("mutate: tree holds %d items, op accounting says %d", tree.Len(), len(live))
	}
	if err := tree.Flush(); err != nil {
		return err
	}
	ms := tree.MutatePathStats()
	fmt.Printf("mutated %s: %d inserts, %d deletes (seed %d), %d items, height %d\n",
		*idx, inserts, deletes, *seed, tree.Len(), tree.Height())
	fmt.Printf("write path: %d inserts and %d deletes finished by page patches alone; %d and %d rebuilt a node (split, reinsert, condense, root change)\n",
		ms.InPlaceInserts, ms.InPlaceDeletes, ms.StructuralInserts, ms.StructuralDeletes)
	fmt.Println("invariants:  ok")
	return nil
}

// source is an input file read as a pull source: each call returns the
// next item, io.EOF after the last, or the error that ends the input — a
// malformed CSV row or WKT line among them, named by file and row. Every
// build reads its input through one: the in-memory and -shards builds
// collect it (readInput), the -external build pulls it (loadExternal).
type source func() (strtree.Item, error)

// openInput opens whichever of -in (CSV), -wkt and -geojson is set and
// returns it as a source, with the file to close once the source is done.
// CSV and WKT are read a row at a time; GeoJSON is parsed whole here.
func openInput(csvPath, wktPath, geojsonPath string) (source, io.Closer, error) {
	path, open := csvPath, csvSource
	switch {
	case wktPath != "":
		path, open = wktPath, wktSource
	case geojsonPath != "":
		path, open = geojsonPath, geojsonSource
	}
	f, err := os.Open(path)
	if err != nil {
		return nil, nil, err
	}
	src, err := open(f, path)
	if err != nil {
		f.Close()
		return nil, nil, err
	}
	return src, f, nil
}

// readInput collects openInput's source.
func readInput(csvPath, wktPath, geojsonPath string) ([]strtree.Item, error) {
	src, f, err := openInput(csvPath, wktPath, geojsonPath)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	var items []strtree.Item
	for {
		it, err := src()
		if err == io.EOF {
			return items, nil
		}
		if err != nil {
			return nil, err
		}
		items = append(items, it)
	}
}

// loadExternal bulk-loads tree from the CSV or WKT input by the
// bounded-memory external build, pulling the source a row at a time. An
// input error ends the stream and fails the build.
func loadExternal(tree *strtree.Tree, csvPath, wktPath string, runSize int) error {
	src, f, err := openInput(csvPath, wktPath, "")
	if err != nil {
		return err
	}
	defer f.Close()
	var srcErr error
	err = tree.BulkLoadExternal(func() (strtree.Item, bool) {
		it, err := src()
		if err != nil {
			if err != io.EOF {
				srcErr = err
			}
			return strtree.Item{}, false
		}
		return it, true
	}, strtree.ExternalOptions{RunSize: runSize})
	return cmp.Or(srcErr, err)
}

// csvSource reads CSV rows "x0,y0,x1,y1[,id]"; a missing id is the row's
// index.
func csvSource(r io.Reader, path string) (source, error) {
	cr := csv.NewReader(r)
	cr.FieldsPerRecord = -1
	row := 0
	return func() (strtree.Item, error) {
		rec, err := cr.Read()
		if err == io.EOF {
			return strtree.Item{}, err
		}
		if err != nil {
			return strtree.Item{}, fmt.Errorf("%s: %w", path, err)
		}
		row++
		it, err := parseItem(rec, row)
		if err != nil {
			return strtree.Item{}, fmt.Errorf("%s row %d: %w", path, row, err)
		}
		return it, nil
	}, nil
}

// parseItem converts one CSV record into an item.
func parseItem(rec []string, row int) (strtree.Item, error) {
	if len(rec) != 4 && len(rec) != 5 {
		return strtree.Item{}, fmt.Errorf("want 4 or 5 fields, got %d", len(rec))
	}
	var v [4]float64
	for i := 0; i < 4; i++ {
		f, err := strconv.ParseFloat(strings.TrimSpace(rec[i]), 64)
		if err != nil {
			return strtree.Item{}, fmt.Errorf("field %d: %w", i+1, err)
		}
		v[i] = f
	}
	id := uint64(row - 1)
	if len(rec) == 5 {
		parsed, err := strconv.ParseUint(strings.TrimSpace(rec[4]), 10, 64)
		if err != nil {
			return strtree.Item{}, fmt.Errorf("id: %w", err)
		}
		id = parsed
	}
	rect, err := strtree.NewRect(strtree.Pt2(v[0], v[1]), strtree.Pt2(v[2], v[3]))
	if err != nil {
		return strtree.Item{}, err
	}
	return strtree.Item{Rect: rect, ID: id}, nil
}

// wktSource reads WKT geometries, one per line, optionally prefixed with
// "id<TAB>"; a missing id is the geometry's index. Blank lines and lines
// starting with '#' are skipped; each geometry is indexed by its minimum
// bounding rectangle.
func wktSource(r io.Reader, path string) (source, error) {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 1<<16), 1<<24) // polygons can be long
	line, items := 0, uint64(0)
	return func() (strtree.Item, error) {
		for sc.Scan() {
			line++
			text := strings.TrimSpace(sc.Text())
			if text == "" || strings.HasPrefix(text, "#") {
				continue
			}
			id, body := items, text
			if tab := strings.IndexByte(text, '\t'); tab >= 0 {
				parsed, err := strconv.ParseUint(strings.TrimSpace(text[:tab]), 10, 64)
				if err != nil {
					return strtree.Item{}, fmt.Errorf("%s line %d: id: %w", path, line, err)
				}
				id, body = parsed, text[tab+1:]
			}
			mbr, err := wkt.MBR(body)
			if err != nil {
				return strtree.Item{}, fmt.Errorf("%s line %d: %w", path, line, err)
			}
			items++
			return strtree.Item{Rect: mbr, ID: id}, nil
		}
		if err := sc.Err(); err != nil {
			return strtree.Item{}, fmt.Errorf("%s: %w", path, err)
		}
		return strtree.Item{}, io.EOF
	}, nil
}

// geojsonSource parses a whole GeoJSON document (FeatureCollection,
// Feature or Geometry) and hands out its features.
func geojsonSource(r io.Reader, path string) (source, error) {
	data, err := io.ReadAll(r)
	if err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	features, err := geojson.Collection(data)
	if err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return func() (strtree.Item, error) {
		if len(features) == 0 {
			return strtree.Item{}, io.EOF
		}
		f := features[0]
		features = features[1:]
		return strtree.Item{Rect: f.Rect, ID: f.ID}, nil
	}, nil
}

func parseRect(s string) (strtree.Rect, error) {
	parts := strings.Split(s, ",")
	if len(parts) != 4 {
		return strtree.Rect{}, fmt.Errorf("rect %q: want x0,y0,x1,y1", s)
	}
	var v [4]float64
	for i, p := range parts {
		f, err := strconv.ParseFloat(strings.TrimSpace(p), 64)
		if err != nil {
			return strtree.Rect{}, fmt.Errorf("rect %q: %w", s, err)
		}
		v[i] = f
	}
	return strtree.NewRect(strtree.Pt2(v[0], v[1]), strtree.Pt2(v[2], v[3]))
}
