package main

import (
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"strtree"
)

func writeCSV(t *testing.T, content string) string {
	t.Helper()
	path := filepath.Join(t.TempDir(), "data.csv")
	if err := os.WriteFile(path, []byte(content), 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

func TestReadItems(t *testing.T) {
	path := writeCSV(t, "0.1,0.1,0.2,0.2\n0.5,0.5,0.6,0.6,99\n")
	items, err := readInput(path, "", "")
	if err != nil {
		t.Fatal(err)
	}
	if len(items) != 2 {
		t.Fatalf("read %d items", len(items))
	}
	if items[0].ID != 0 {
		t.Fatalf("default id = %d, want row index 0", items[0].ID)
	}
	if items[1].ID != 99 {
		t.Fatalf("explicit id = %d", items[1].ID)
	}
	if !items[1].Rect.Equal(strtree.R2(0.5, 0.5, 0.6, 0.6)) {
		t.Fatalf("rect = %v", items[1].Rect)
	}
}

func TestReadItemsReordersCorners(t *testing.T) {
	path := writeCSV(t, "0.9,0.9,0.1,0.1\n")
	items, err := readInput(path, "", "")
	if err != nil {
		t.Fatal(err)
	}
	if !items[0].Rect.Equal(strtree.R2(0.1, 0.1, 0.9, 0.9)) {
		t.Fatalf("corners not reordered: %v", items[0].Rect)
	}
}

func TestReadItemsErrors(t *testing.T) {
	cases := map[string]string{
		"wrong field count": "1,2,3\n",
		"bad float":         "a,b,c,d\n",
		"bad id":            "0,0,1,1,xyz\n",
		"NaN rect":          "NaN,0,1,1\n",
	}
	for name, content := range cases {
		if _, err := readInput(writeCSV(t, content), "", ""); err == nil {
			t.Errorf("%s accepted", name)
		}
	}
	if _, err := readInput(filepath.Join(t.TempDir(), "missing.csv"), "", ""); err == nil {
		t.Error("missing file accepted")
	}
}

func TestParseRect(t *testing.T) {
	r, err := parseRect("0.1, 0.2, 0.3, 0.4")
	if err != nil {
		t.Fatal(err)
	}
	if !r.Equal(strtree.R2(0.1, 0.2, 0.3, 0.4)) {
		t.Fatalf("parsed %v", r)
	}
	for _, bad := range []string{"1,2,3", "a,b,c,d", ""} {
		if _, err := parseRect(bad); err == nil {
			t.Errorf("parseRect(%q) accepted", bad)
		}
	}
}

func TestBuildQueryStatsEndToEnd(t *testing.T) {
	csvPath := writeCSV(t, "0.1,0.1,0.2,0.2,1\n0.5,0.5,0.6,0.6,2\n0.15,0.15,0.17,0.17,3\n")
	idx := filepath.Join(t.TempDir(), "e2e.str")
	if err := runBuild([]string{"-in", csvPath, "-out", idx, "-pack", "STR", "-cap", "16"}); err != nil {
		t.Fatal(err)
	}
	// Reopen and verify contents through the library.
	tree, err := strtree.Open(idx, strtree.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer tree.Close()
	if tree.Len() != 3 || tree.Capacity() != 16 {
		t.Fatalf("len %d cap %d", tree.Len(), tree.Capacity())
	}
	n, err := tree.Count(strtree.R2(0, 0, 0.3, 0.3))
	if err != nil {
		t.Fatal(err)
	}
	if n != 2 {
		t.Fatalf("count = %d", n)
	}
	// The subcommand paths run clean (stdout noise is fine in tests).
	if err := runQuery([]string{"-idx", idx, "-rect", "0,0,0.3,0.3"}); err != nil {
		t.Fatal(err)
	}
	if err := runStats([]string{"-idx", idx}); err != nil {
		t.Fatal(err)
	}
}

func TestBuildVerifyFlag(t *testing.T) {
	var rows strings.Builder
	for i := 0; i < 300; i++ {
		x := float64(i%20) / 20
		y := float64(i/20) / 20
		fmt.Fprintf(&rows, "%g,%g,%g,%g,%d\n", x, y, x+0.01, y+0.01, i)
	}
	csvPath := writeCSV(t, rows.String())
	idx := filepath.Join(t.TempDir(), "verified.str")
	if err := runBuild([]string{"-in", csvPath, "-out", idx, "-cap", "8", "-verify"}); err != nil {
		t.Fatal(err)
	}
	if err := runStats([]string{"-idx", idx, "-verify"}); err != nil {
		t.Fatal(err)
	}
}

func TestReadWKTItems(t *testing.T) {
	path := writeCSV(t, "# comment\nPOINT (1 2)\n\n7\tLINESTRING (0 0, 4 4)\nPOLYGON ((0 0, 2 0, 2 2, 0 0))\n")
	items, err := readInput("", path, "")
	if err != nil {
		t.Fatal(err)
	}
	if len(items) != 3 {
		t.Fatalf("parsed %d items", len(items))
	}
	if !items[0].Rect.Equal(strtree.R2(1, 2, 1, 2)) || items[0].ID != 0 {
		t.Fatalf("item 0 = %+v", items[0])
	}
	if !items[1].Rect.Equal(strtree.R2(0, 0, 4, 4)) || items[1].ID != 7 {
		t.Fatalf("item 1 = %+v", items[1])
	}
	if !items[2].Rect.Equal(strtree.R2(0, 0, 2, 2)) {
		t.Fatalf("item 2 = %+v", items[2])
	}
}

func TestReadWKTItemsErrors(t *testing.T) {
	if _, err := readInput("", writeCSV(t, "CIRCLE (1 2 3)\n"), ""); err == nil {
		t.Error("unsupported geometry accepted")
	}
	if _, err := readInput("", writeCSV(t, "x\tPOINT (1 2)\n"), ""); err == nil {
		t.Error("bad id accepted")
	}
	if _, err := readInput("", filepath.Join(t.TempDir(), "missing.wkt"), ""); err == nil {
		t.Error("missing file accepted")
	}
}

func TestBuildFromWKT(t *testing.T) {
	path := writeCSV(t, "POINT (0.1 0.1)\nPOLYGON ((0.4 0.4, 0.6 0.4, 0.6 0.6, 0.4 0.4))\n")
	idx := filepath.Join(t.TempDir(), "wkt.str")
	if err := runBuild([]string{"-wkt", path, "-out", idx}); err != nil {
		t.Fatal(err)
	}
	tree, err := strtree.Open(idx, strtree.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer tree.Close()
	if tree.Len() != 2 {
		t.Fatalf("len = %d", tree.Len())
	}
	n, err := tree.Count(strtree.R2(0.45, 0.45, 0.5, 0.5))
	if err != nil {
		t.Fatal(err)
	}
	if n != 1 {
		t.Fatalf("count = %d", n)
	}
}

func TestBuildFromGeoJSON(t *testing.T) {
	doc := `{"type":"FeatureCollection","features":[
		{"type":"Feature","id":10,"geometry":{"type":"Point","coordinates":[0.1,0.1]},"properties":{}},
		{"type":"Feature","id":20,"geometry":{"type":"Polygon","coordinates":[[[0.4,0.4],[0.6,0.4],[0.6,0.6],[0.4,0.4]]]},"properties":{}}
	]}`
	path := writeCSV(t, doc)
	idx := filepath.Join(t.TempDir(), "gj.str")
	if err := runBuild([]string{"-geojson", path, "-out", idx}); err != nil {
		t.Fatal(err)
	}
	tree, err := strtree.Open(idx, strtree.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer tree.Close()
	if tree.Len() != 2 {
		t.Fatalf("len = %d", tree.Len())
	}
	found := false
	if err := tree.SearchPoint(strtree.Pt2(0.5, 0.45), func(it strtree.Item) bool {
		found = it.ID == 20
		return true
	}); err != nil {
		t.Fatal(err)
	}
	if !found {
		t.Fatal("polygon feature not found by id")
	}
	// Two inputs at once rejected.
	if err := runBuild([]string{"-geojson", path, "-in", path, "-out", idx}); err == nil {
		t.Fatal("two inputs accepted")
	}
}

func TestBuildExternalFromCSV(t *testing.T) {
	// A small external build exercising the bounded-memory path.
	var sb strings.Builder
	for i := 0; i < 500; i++ {
		x := float64(i%25) / 25
		y := float64(i/25) / 25
		fmt.Fprintf(&sb, "%g,%g,%g,%g\n", x, y, x+0.01, y+0.01)
	}
	csvPath := writeCSV(t, sb.String())
	idx := filepath.Join(t.TempDir(), "ext.str")
	if err := runBuild([]string{"-in", csvPath, "-out", idx, "-external", "-runsize", "64", "-cap", "20"}); err != nil {
		t.Fatal(err)
	}
	tree, err := strtree.Open(idx, strtree.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer tree.Close()
	if tree.Len() != 500 {
		t.Fatalf("len = %d", tree.Len())
	}
	if err := tree.Validate(); err != nil {
		t.Fatal(err)
	}
}

// TestBuildExternalRejectsMalformedRow holds every build to one CSV
// policy: a malformed row fails the in-memory, -shards and -external builds
// alike, and the error names the file and the row.
func TestBuildExternalRejectsMalformedRow(t *testing.T) {
	csvPath := writeCSV(t, "0.1,0.1,0.2,0.2\n0.3,0.3,0.4\n0.5,0.5,0.6,0.6\n")
	dir := t.TempDir()
	for _, args := range [][]string{
		{"-external", "-runsize", "2"},
		{},
		{"-shards", "2"},
	} {
		err := runBuild(append([]string{"-in", csvPath, "-out", filepath.Join(dir, "x.str")}, args...))
		if err == nil {
			t.Fatalf("build %v indexed a file with a malformed row", args)
		}
		if want := csvPath + " row 2:"; !strings.Contains(err.Error(), want) {
			t.Fatalf("build %v: error %q does not name %q", args, err, want)
		}
	}
}

// TestBuildExternalFromWKT runs the -external build over a WKT file, read a
// line at a time, to the tree the in-memory build makes of it; -geojson,
// parsed whole, is refused.
func TestBuildExternalFromWKT(t *testing.T) {
	var sb strings.Builder
	for i := 0; i < 300; i++ {
		x, y := float64(i%20)/20, float64(i/20)/20
		fmt.Fprintf(&sb, "%d\tPOLYGON ((%g %g, %g %g, %g %g, %g %g))\n", 1000+i, x, y, x+0.01, y, x+0.01, y+0.01, x, y)
	}
	path := writeCSV(t, sb.String())
	dir := t.TempDir()
	ext, mem := filepath.Join(dir, "ext.str"), filepath.Join(dir, "mem.str")
	if err := runBuild([]string{"-wkt", path, "-out", ext, "-external", "-runsize", "64", "-cap", "20"}); err != nil {
		t.Fatal(err)
	}
	if err := runBuild([]string{"-wkt", path, "-out", mem, "-cap", "20"}); err != nil {
		t.Fatal(err)
	}
	a, err := os.ReadFile(ext)
	if err != nil {
		t.Fatal(err)
	}
	b, err := os.ReadFile(mem)
	if err != nil {
		t.Fatal(err)
	}
	if string(a) != string(b) {
		t.Fatal("-external and in-memory builds of one WKT file differ")
	}
	if err := runBuild([]string{"-geojson", path, "-out", ext, "-external"}); err == nil {
		t.Fatal("-external accepted -geojson")
	}
}

func TestRunBuildErrors(t *testing.T) {
	if err := runBuild([]string{"-out", filepath.Join(t.TempDir(), "x.str")}); err == nil {
		t.Error("missing -in accepted")
	}
	csvPath := writeCSV(t, "0,0,1,1\n")
	if err := runBuild([]string{"-in", csvPath, "-out", filepath.Join(t.TempDir(), "x.str"), "-pack", "BOGUS"}); err == nil {
		t.Error("bogus packing accepted")
	}
}

// TestParsePacking holds -pack to the library's enum: every Packing value is
// reachable by its own name in any case, nothing else is, and a packing only
// the in-memory build has is refused by -external and -shards by name.
func TestParsePacking(t *testing.T) {
	all := []strtree.Packing{strtree.PackSTR, strtree.PackHilbert, strtree.PackNearestX, strtree.PackTGS}
	if got := packingNames(); len(got) != len(all) {
		t.Fatalf("packingNames() = %v, want the %d Packing values", got, len(all))
	}
	for _, p := range all {
		for _, name := range []string{p.String(), strings.ToLower(p.String())} {
			if got, err := parsePacking(name); err != nil || got != p {
				t.Errorf("parsePacking(%q) = %v, %v; want %v", name, got, err, p)
			}
		}
	}
	for _, name := range []string{"", "BOGUS", "STR-serp", "Packing(4)", "Packing(0)"} {
		if _, err := parsePacking(name); err == nil || !strings.Contains(err.Error(), "TGS") {
			t.Errorf("parsePacking(%q) = %v, want an error listing the packings", name, err)
		}
	}
	csvPath := writeCSV(t, "0,0,1,1\n0.5,0.5,0.6,0.6\n0.2,0.7,0.3,0.8\n")
	idx := filepath.Join(t.TempDir(), "tgs.str")
	if err := runBuild([]string{"-in", csvPath, "-out", idx, "-pack", "tgs", "-cap", "2", "-verify"}); err != nil {
		t.Fatalf("build -pack tgs: %v", err)
	}
	for _, extra := range [][]string{{"-external"}, {"-shards", "2"}} {
		args := append([]string{"-in", csvPath, "-out", idx, "-pack", "TGS"}, extra...)
		if err := runBuild(args); err == nil || !strings.Contains(err.Error(), "TGS") {
			t.Errorf("build -pack TGS %v = %v, want a refusal naming TGS", extra, err)
		}
	}
}

func TestMutateEndToEnd(t *testing.T) {
	var rows strings.Builder
	for i := 0; i < 400; i++ {
		x := float64(i%20) / 20
		y := float64(i/20) / 20
		fmt.Fprintf(&rows, "%g,%g,%g,%g,%d\n", x, y, x+0.01, y+0.01, i)
	}
	csvPath := writeCSV(t, rows.String())
	idx := filepath.Join(t.TempDir(), "mutated.str")
	if err := runBuild([]string{"-in", csvPath, "-out", idx, "-cap", "16"}); err != nil {
		t.Fatal(err)
	}
	if err := runMutate([]string{"-idx", idx, "-ops", "300", "-seed", "7", "-verify"}); err != nil {
		t.Fatal(err)
	}
	// The mutated file must reopen as a structurally sound tree whose
	// length matches the seeded op accounting (runMutate already checked
	// Len against its live list before flushing).
	tree, err := strtree.Open(idx, strtree.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer tree.Close()
	if err := tree.CheckInvariants(); err != nil {
		t.Fatalf("reopened mutated index: %v", err)
	}
	if err := runStats([]string{"-idx", idx, "-verify"}); err != nil {
		t.Fatal(err)
	}
}

func TestMutateDrainsToEmpty(t *testing.T) {
	csvPath := writeCSV(t, "0.1,0.1,0.2,0.2,1\n0.5,0.5,0.6,0.6,2\n")
	idx := filepath.Join(t.TempDir(), "drain.str")
	if err := runBuild([]string{"-in", csvPath, "-out", idx}); err != nil {
		t.Fatal(err)
	}
	// p-insert 0 deletes a live item every op until none remain; with
	// exactly as many ops as items the index must end empty — after
	// which runMutate's insert branch is the only choice left, so one
	// more run regrows it from the degenerate empty-bounds fallback.
	if err := runMutate([]string{"-idx", idx, "-ops", "2", "-p-insert", "0", "-seed", "3"}); err != nil {
		t.Fatal(err)
	}
	tree, err := strtree.Open(idx, strtree.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if tree.Len() != 0 {
		t.Fatalf("drained index holds %d items", tree.Len())
	}
	tree.Close()
	if err := runMutate([]string{"-idx", idx, "-ops", "5", "-seed", "4"}); err != nil {
		t.Fatal(err)
	}
}

func TestRunMutateErrors(t *testing.T) {
	if err := runMutate([]string{"-idx", filepath.Join(t.TempDir(), "nope.str")}); err == nil {
		t.Error("missing index accepted")
	}
	if err := runMutate([]string{"-idx", "whatever.str", "-ops", "0"}); err == nil {
		t.Error("zero ops accepted")
	}
}

func TestRunQueryErrors(t *testing.T) {
	if err := runQuery([]string{"-idx", "nope.str"}); err == nil {
		t.Error("missing -rect accepted")
	}
	if err := runQuery([]string{"-idx", filepath.Join(t.TempDir(), "nope.str"), "-rect", "0,0,1,1"}); err == nil {
		t.Error("missing index accepted")
	}
}
