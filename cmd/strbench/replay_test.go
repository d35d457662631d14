package main

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"strtree"
	"strtree/internal/geom"
	"strtree/internal/server/wire"
)

// writeReplayFixture builds a small packed index and a slow-query
// capture covering every replayable op, returning both paths.
func writeReplayFixture(t *testing.T) (idxPath, logPath string) {
	t.Helper()
	dir := t.TempDir()
	idxPath = filepath.Join(dir, "index.str")
	tree, err := strtree.Create(idxPath, strtree.Options{Capacity: 16})
	if err != nil {
		t.Fatal(err)
	}
	items := make([]strtree.Item, 200)
	for i := range items {
		x := float64(i%20) / 20
		y := float64(i/20) / 10
		items[i] = strtree.Item{Rect: geom.R2(x, y, x+0.03, y+0.03), ID: uint64(i)}
	}
	if err := tree.BulkLoad(items, strtree.PackSTR); err != nil {
		t.Fatal(err)
	}
	if err := tree.Close(); err != nil {
		t.Fatal(err)
	}

	logPath = filepath.Join(dir, "slow.jsonl")
	capture := strings.Join([]string{
		`{"op":"search","rect":{"min":[0.1,0.1],"max":[0.5,0.5]},"duration_ns":1000,"results":1,"status":"ok"}`,
		`{"op":"count","rect":{"min":[0,0],"max":[1,1]},"duration_ns":1000,"results":200,"status":"ok"}`,
		`{"op":"searchpoint","point":[0.25,0.25],"duration_ns":1000,"results":1,"status":"ok"}`,
		`{"op":"nearest","point":[0.5,0.5],"k":3,"duration_ns":1000,"results":3,"status":"ok"}`,
		`{"op":"batch","batch":[{"min":[0,0],"max":[0.2,0.2]},{"min":[0.5,0.5],"max":[0.7,0.7]}],"duration_ns":1000,"results":9,"status":"ok"}`,
		`{"op":"stats","duration_ns":1000,"results":0,"status":"ok"}`,
	}, "\n") + "\n"
	if err := os.WriteFile(logPath, []byte(capture), 0o644); err != nil {
		t.Fatal(err)
	}
	return idxPath, logPath
}

func TestRunReplay(t *testing.T) {
	idxPath, logPath := writeReplayFixture(t)
	var out bytes.Buffer
	err := runReplay(&out, logPath, replayConfig{idx: idxPath, bufPages: 64, shards: 1})
	if err != nil {
		t.Fatalf("replay failed: %v\n%s", err, out.String())
	}
	report := out.String()
	for _, want := range []string{
		"replaying 6 captured queries",
		"search", "count", "searchpoint", "nearest", "batch",
		"total: 6 queries",
		"logical reads",
	} {
		if !strings.Contains(report, want) {
			t.Errorf("report missing %q:\n%s", want, report)
		}
	}
}

// TestRunReplaySkipsBadRecords proves one malformed record is reported
// and skipped rather than aborting the replay.
func TestRunReplaySkipsBadRecords(t *testing.T) {
	idxPath, logPath := writeReplayFixture(t)
	f, err := os.OpenFile(logPath, os.O_APPEND|os.O_WRONLY, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	// A nearest record without k, and one whose k is past the protocol's
	// bound: no server could have received either, so neither runs.
	if _, err := f.WriteString(`{"op":"nearest","point":[0.5,0.5],"duration_ns":1,"results":0,"status":"ok"}` + "\n" +
		`{"op":"nearest","point":[0.5,0.5],"k":1048577,"duration_ns":1,"results":0,"status":"ok"}` + "\n"); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
	var out bytes.Buffer
	if err := runReplay(&out, logPath, replayConfig{idx: idxPath, bufPages: 64, shards: 1}); err != nil {
		t.Fatalf("replay failed: %v\n%s", err, out.String())
	}
	if !strings.Contains(out.String(), "2 skipped") {
		t.Errorf("missing-k and oversized-k records not both skipped:\n%s", out.String())
	}
	if got := strings.Count(out.String(), wire.ErrBadK.Error()); got != 2 {
		t.Errorf("%d skip lines name k's range, want 2:\n%s", got, out.String())
	}
}

func TestRunReplayErrors(t *testing.T) {
	idxPath, logPath := writeReplayFixture(t)
	var out bytes.Buffer
	if err := runReplay(&out, logPath, replayConfig{}); err == nil {
		t.Error("missing -idx accepted")
	}
	empty := filepath.Join(t.TempDir(), "empty.jsonl")
	if err := os.WriteFile(empty, nil, 0o644); err != nil {
		t.Fatal(err)
	}
	if err := runReplay(&out, empty, replayConfig{idx: idxPath}); err == nil {
		t.Error("empty capture accepted")
	}
	if err := runReplay(&out, filepath.Join(t.TempDir(), "nosuch.jsonl"), replayConfig{idx: idxPath}); err == nil {
		t.Error("missing capture file accepted")
	}
}
