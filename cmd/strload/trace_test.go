package main

import (
	"bytes"
	"fmt"
	"io"
	"path/filepath"
	"strings"
	"testing"

	"strtree"
)

// TestRecordSimulateEndToEnd runs strload trace over a built index: one
// call records the queries' page accesses and prints a row per buffer size.
func TestRecordSimulateEndToEnd(t *testing.T) {
	dir := t.TempDir()
	idx := filepath.Join(dir, "idx.str")
	tree, err := strtree.Create(idx, strtree.Options{Capacity: 50})
	if err != nil {
		t.Fatal(err)
	}
	items := make([]strtree.Item, 3000)
	for i := range items {
		x := float64(i%60) / 60
		y := float64(i/60) / 60
		items[i] = strtree.Item{Rect: strtree.R2(x, y, x+0.01, y+0.01), ID: uint64(i)}
	}
	if err := tree.BulkLoad(items, strtree.PackSTR); err != nil {
		t.Fatal(err)
	}
	if err := tree.Close(); err != nil {
		t.Fatal(err)
	}

	var out bytes.Buffer
	if err := runTrace(&out, []string{"-idx", idx, "-queries", "100", "-extent", "0.05", "-buffers", "5,10"}); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSuffix(out.String(), "\n"), "\n")
	var accesses int
	if _, err := fmt.Sscanf(lines[0], "trace: %d accesses", &accesses); err != nil || accesses == 0 {
		t.Fatalf("no page accesses recorded:\n%s", out.String())
	}
	if len(lines) != 5 || !strings.HasPrefix(lines[3], "5 ") || !strings.HasPrefix(lines[4], "10 ") {
		t.Fatalf("want a header and one row per buffer size (5, 10):\n%s", out.String())
	}
	// Bad inputs.
	for _, args := range [][]string{
		{"-idx", idx, "-buffers", "0"},
		{"-idx", idx, "-queries", "0"},
		{"-idx", filepath.Join(dir, "missing.str")},
	} {
		if err := runTrace(io.Discard, args); err == nil {
			t.Errorf("%q accepted", args)
		}
	}
}

func TestGenWritesBuildableCSV(t *testing.T) {
	out := filepath.Join(t.TempDir(), "rects.csv")
	if err := runGen([]string{"-set", "uniform", "-n", "500", "-seed", "7", "-out", out}); err != nil {
		t.Fatal(err)
	}
	items, err := readInput(out, "", "")
	if err != nil {
		t.Fatal(err)
	}
	if len(items) != 500 {
		t.Fatalf("read back %d items, want 500", len(items))
	}
	if err := runGen([]string{"-set", "nosuch"}); err == nil || !strings.Contains(err.Error(), "uniform") {
		t.Fatalf("unknown set: err %v, want one listing the available sets", err)
	}
}
