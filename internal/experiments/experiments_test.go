package experiments

import (
	"strconv"
	"strings"
	"testing"

	"strtree/internal/datagen"
	"strtree/internal/pack"
	"strtree/internal/query"
	"strtree/internal/rtree"
)

// tinyConfig keeps every experiment fast enough for the unit-test suite.
func tinyConfig() Config {
	return Config{Scale: 0.02, Queries: 60, Capacity: 25, Seed: 7}
}

func TestRegistryComplete(t *testing.T) {
	// Every table and figure of the paper's evaluation must be present.
	// So must every experiment beyond them.
	want := []string{
		"table1", "table2", "table3", "table4", "table5",
		"table6", "table7", "table8", "table9", "table10",
		"fig7", "fig8", "fig9", "fig10", "fig11", "fig12",
		"ext3d", "extdynamic", "extsplits", "extwarmup", "extmodel",
		"extpolicy", "extqorder", "extpackers", "extlevels",
	}
	for _, id := range want {
		if _, ok := Lookup(id); !ok {
			t.Errorf("experiment %q not registered", id)
		}
	}
	if got := len(IDs()); got != len(want) {
		t.Errorf("registry holds %d experiments, want %d: %v", got, len(want), IDs())
	}
}

func TestIDsOrdering(t *testing.T) {
	ids := IDs()
	// Tables first, in numeric order.
	if ids[0] != "table1" || ids[1] != "table2" {
		t.Fatalf("IDs start with %v", ids[:2])
	}
	if ids[len(ids)-1] != "fig12" {
		t.Fatalf("IDs end with %v", ids[len(ids)-1])
	}
}

func TestLookupCaseInsensitive(t *testing.T) {
	if _, ok := Lookup("Table2"); !ok {
		t.Fatal("case-insensitive lookup failed")
	}
	if _, ok := Lookup("table99"); ok {
		t.Fatal("phantom experiment found")
	}
}

func TestAllExperimentsRun(t *testing.T) {
	cfg := tinyConfig()
	for _, id := range IDs() {
		id := id
		t.Run(id, func(t *testing.T) {
			t.Parallel()
			r, _ := Lookup(id)
			tbl, err := r(cfg)
			if err != nil {
				t.Fatalf("%s: %v", id, err)
			}
			if tbl.ID == "" || tbl.Title == "" {
				t.Fatalf("%s: missing identification", id)
			}
			if len(tbl.Rows) == 0 {
				t.Fatalf("%s: no rows", id)
			}
			for i, row := range tbl.Rows {
				if len(row) != len(tbl.Header) {
					t.Fatalf("%s row %d: %d cells, header has %d", id, i, len(row), len(tbl.Header))
				}
			}
			var sb strings.Builder
			if err := tbl.Fprint(&sb); err != nil {
				t.Fatal(err)
			}
			if !strings.Contains(sb.String(), tbl.Title) {
				t.Fatalf("%s: printed output missing the title", id)
			}
		})
	}
}

// cell parses a numeric table cell.
func cell(t *testing.T, s string) float64 {
	t.Helper()
	v, err := strconv.ParseFloat(strings.TrimSuffix(s, "%"), 64)
	if err != nil {
		t.Fatalf("cell %q: %v", s, err)
	}
	return v
}

// TestTable2Shape verifies the headline directional claims on a larger
// scaled run: on uniform data STR needs fewer accesses than HS, and NX is
// far worse than STR for region queries on region data.
func TestTable2Shape(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode")
	}
	cfg := Config{Scale: 0.1, Queries: 300, Capacity: 100, Seed: 3}
	tbl, err := syntheticAccesses(cfg, 10, "Table 2")
	if err != nil {
		t.Fatal(err)
	}
	var strWins, rows int
	for _, row := range tbl.Rows {
		rows++
		str := cell(t, row[2])
		hs := cell(t, row[3])
		if str <= hs*1.02 {
			strWins++
		}
		// The NX penalty needs enough leaves for its strips to be skinny;
		// skip the 10-leaf smallest size.
		if strings.HasPrefix(row[0], "Region") && cell(t, row[1]) >= 2500 {
			// NX/STR ratio on density-5 data must exceed 1.5 for region
			// queries (paper: 2-8x).
			if nxRatio := cell(t, row[11]); nxRatio < 1.5 {
				t.Errorf("row %v: NX/STR ratio %.2f too small", row[:2], nxRatio)
			}
		}
	}
	if strWins < rows*3/4 {
		t.Errorf("STR beat HS on only %d/%d synthetic rows", strWins, rows)
	}
}

func TestBuildPackedAndAvgAccesses(t *testing.T) {
	entries := datagen.UniformPoints(2000, 1)
	tr, err := BuildPacked(entries, pack.STR{}, 10, 50)
	if err != nil {
		t.Fatal(err)
	}
	if tr.Len() != 2000 {
		t.Fatalf("Len = %d", tr.Len())
	}
	if err := tr.Check(rtree.CheckConfig{}); err != nil {
		t.Fatal(err)
	}
	// Stats arrive zeroed.
	if s := tr.Pool().Stats(); s.DiskReads != 0 {
		// Check walks the tree, so reset before measuring.
		tr.Pool().ResetStats()
	}
	qs := query.Points(100, 2)
	acc, err := AvgAccesses(tr, qs)
	if err != nil {
		t.Fatal(err)
	}
	// A point query on a 3-level tree (41 leaves) with a 10-page buffer
	// must average at least one access and fewer than the tree height
	// times a small overlap factor.
	if acc <= 0 || acc > 6 {
		t.Fatalf("avg accesses = %g", acc)
	}
	// A huge buffer drives accesses toward zero after warm-up.
	tr2, err := BuildPacked(entries, pack.STR{}, 512, 50)
	if err != nil {
		t.Fatal(err)
	}
	acc2, err := AvgAccesses(tr2, qs)
	if err != nil {
		t.Fatal(err)
	}
	if acc2 >= acc {
		t.Fatalf("bigger buffer did not help: %g vs %g", acc2, acc)
	}
}

func TestConfigScaling(t *testing.T) {
	cfg := Config{Scale: 0.1, Queries: 10, Capacity: 100, Seed: 1}
	if got := cfg.size(10000); got != 1000 {
		t.Fatalf("size(10000) = %d", got)
	}
	if got := cfg.size(100); got != 200 {
		t.Fatalf("size floor: %d, want 200 (two leaves)", got)
	}
	if got := cfg.bufPages(250); got != 25 {
		t.Fatalf("bufPages(250) = %d", got)
	}
	if got := cfg.bufPages(10); got != 3 {
		t.Fatalf("bufPages floor: %d, want 3", got)
	}
	full := Full()
	if full.Scale != 1 || full.Queries != 2000 || full.Capacity != 100 {
		t.Fatalf("Full() = %+v", full)
	}
}

func TestRegisterDuplicatePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("duplicate registration did not panic")
		}
	}()
	Register("table1", Table1)
}

func TestPaperAlgorithmsOrder(t *testing.T) {
	algs := PaperAlgorithms()
	if len(algs) != 3 || algs[0].Name != "STR" || algs[1].Name != "HS" || algs[2].Name != "NX" {
		t.Fatalf("algorithms = %+v", algs)
	}
}

func TestFprintCSV(t *testing.T) {
	tbl := &Table{
		ID: "Table X", Title: "t",
		Header: []string{"a", "b"},
		Rows:   [][]string{{"1", "2"}, {"3", "4"}},
	}
	var sb strings.Builder
	if err := tbl.FprintCSV(&sb); err != nil {
		t.Fatal(err)
	}
	if sb.String() != "a,b\n1,2\n3,4\n" {
		t.Fatalf("csv = %q", sb.String())
	}
}

func TestRatioGuards(t *testing.T) {
	if ratio(1, 0) != "-" {
		t.Fatal("divide-by-zero ratio not guarded")
	}
	if ratio(3, 2) != "1.50" {
		t.Fatalf("ratio = %s", ratio(3, 2))
	}
	if f2(1.234) != "1.23" {
		t.Fatalf("f2 = %s", f2(1.234))
	}
}
