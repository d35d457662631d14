package strtree

import (
	"go/ast"
	"go/parser"
	"go/token"
	"path/filepath"
	"slices"
	"strings"
	"testing"
)

// TestExportedSurface pins the package's public names: the exported
// top-level functions, types and values and the methods on *Tree, read from
// the non-test sources with go/parser. A name added to or removed from the
// API fails here until the lists below change with it, so the surface grows
// only by a visible diff. TestSettingsFields does the same for Options.
func TestExportedSurface(t *testing.T) {
	want := map[string][]string{
		"func": {"Create", "Join", "New", "NewOnPager", "Open", "Pt2", "R2"},
		"type": {
			"BuildStats", "ExternalOptions", "ExternalSortStats",
			"IOStats", "Item", "Metrics", "MutatePathStats", "Options", "Packing",
			"Point", "ReadPathStats", "Rect", "ShardIOStats", "Tree",
		},
		"value": {"MBR", "NewRect", "PackHilbert", "PackNearestX", "PackSTR", "PackTGS", "PointRect"},
		"*Tree method": {
			"Bounds", "BulkLoad", "BulkLoadExternal", "Capacity",
			"CheckInvariants", "CheckPackedInvariants", "Close", "CompactInto", "Count",
			"CountContext", "Delete", "Dims", "DropCaches", "Flush", "Height", "Insert",
			"LastBuildStats", "LastExternalSortStats", "Len", "Metrics",
			"MutatePathStats", "NearestK", "NearestKContext", "ReadPathStats",
			"ResetStats", "Scan", "Search", "SearchBatch", "SearchBatchContext",
			"SearchBatchCount", "SearchContext", "SearchPoint", "ShardStats", "Stats",
			"Utilization",
		},
	}
	got := map[string][]string{}
	for _, decl := range decls(t, ".") {
		switch d := decl.(type) {
		case *ast.FuncDecl:
			switch {
			case !d.Name.IsExported():
			case d.Recv == nil:
				got["func"] = append(got["func"], d.Name.Name)
			case isTreePointer(d.Recv.List[0].Type):
				got["*Tree method"] = append(got["*Tree method"], d.Name.Name)
			}
		case *ast.GenDecl:
			for _, spec := range d.Specs {
				switch s := spec.(type) {
				case *ast.TypeSpec:
					if s.Name.IsExported() {
						got["type"] = append(got["type"], s.Name.Name)
					}
				case *ast.ValueSpec:
					for _, n := range s.Names {
						if n.IsExported() {
							got["value"] = append(got["value"], n.Name)
						}
					}
				}
			}
		}
	}
	for _, kind := range []string{"func", "type", "value", "*Tree method"} {
		names, have := want[kind], got[kind]
		for _, n := range have {
			if !slices.Contains(names, n) {
				t.Errorf("exported %s %s is not in this test's list", kind, n)
			}
		}
		for _, n := range names {
			if !slices.Contains(have, n) {
				t.Errorf("%s %s is in this test's list but not in the package", kind, n)
			}
		}
	}
}

// TestSettingsFields pins the fields of every settings struct a caller
// fills in: the root Options and the configurations of the tree, its
// verifier and the query server beneath it. Each field is a value someone
// can set, so one is added only by a visible diff here, and a setting with
// one value in use becomes a constant instead (DESIGN.md §17).
func TestSettingsFields(t *testing.T) {
	for _, c := range []struct {
		dir, typ string
		want     []string
	}{
		{".", "Options", []string{"BufferPages", "BufferShards", "Capacity", "Dims", "ForcedReinsert", "Workers"}},
		{"internal/rtree", "Config", []string{"Capacity", "Dims", "ForcedReinsert", "Workers"}},
		{"internal/rtree", "CheckConfig", []string{"Packed"}},
		{"internal/server", "Config", []string{"DefaultTimeout", "Logf", "MaxInFlight", "Mutable", "SlowLogJSON", "SlowQueryThreshold"}},
	} {
		got := structFields(t, c.dir, c.typ)
		slices.Sort(got)
		if !slices.Equal(got, c.want) {
			t.Errorf("%s fields %v, want %v", filepath.Join(c.dir, c.typ), got, c.want)
		}
	}
}

// structFields lists the field names of the struct type typ declared in
// the non-test Go files of dir.
func structFields(t *testing.T, dir, typ string) (fields []string) {
	for _, decl := range decls(t, dir) {
		ast.Inspect(decl, func(n ast.Node) bool {
			if s, ok := n.(*ast.TypeSpec); ok && s.Name.Name == typ {
				for _, f := range s.Type.(*ast.StructType).Fields.List {
					for _, name := range f.Names {
						fields = append(fields, name.Name)
					}
				}
			}
			_, fn := n.(*ast.FuncDecl)
			return !fn
		})
	}
	return fields
}

// decls returns the top-level declarations of the non-test Go files in
// dir, read with go/parser.
func decls(t *testing.T, dir string) []ast.Decl {
	t.Helper()
	files, err := filepath.Glob(filepath.Join(dir, "*.go"))
	if err != nil {
		t.Fatal(err)
	}
	var out []ast.Decl
	fset := token.NewFileSet()
	for _, name := range files {
		if strings.HasSuffix(name, "_test.go") {
			continue
		}
		f, err := parser.ParseFile(fset, name, nil, parser.SkipObjectResolution)
		if err != nil {
			t.Fatal(err)
		}
		out = append(out, f.Decls...)
	}
	return out
}

// isTreePointer reports whether a receiver type is *Tree.
func isTreePointer(e ast.Expr) bool {
	star, ok := e.(*ast.StarExpr)
	if !ok {
		return false
	}
	id, ok := star.X.(*ast.Ident)
	return ok && id.Name == "Tree"
}
