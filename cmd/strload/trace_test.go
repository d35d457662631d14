package main

import (
	"os"
	"path/filepath"
	"strings"
	"testing"

	"strtree"
	"strtree/internal/trace"
)

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

	out := filepath.Join(dir, "a.trace")
	if err := runTrace([]string{"record", "-idx", idx, "-queries", "100", "-extent", "0.05", "-out", out}); err != nil {
		t.Fatal(err)
	}
	f, err := os.Open(out)
	if err != nil {
		t.Fatal(err)
	}
	tr, err := trace.Load(f)
	f.Close()
	if err != nil {
		t.Fatal(err)
	}
	if len(tr) == 0 {
		t.Fatal("empty trace recorded")
	}
	if err := runTrace([]string{"simulate", "-trace", out, "-buffers", "5,10", "-queries", "100"}); err != nil {
		t.Fatal(err)
	}
	// Bad inputs.
	if err := runSimulate([]string{"-trace", out, "-buffers", "0"}); err == nil {
		t.Fatal("buffer size 0 accepted")
	}
	if err := runSimulate([]string{"-trace", filepath.Join(dir, "missing.trace")}); err == nil {
		t.Fatal("missing trace accepted")
	}
	if err := runRecord([]string{"-idx", filepath.Join(dir, "missing.str"), "-out", out}); err == nil {
		t.Fatal("missing index accepted")
	}
	if err := runTrace([]string{"replay"}); err == nil {
		t.Fatal("unknown trace mode accepted")
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
