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
// top-level functions, types and values, the methods on *Tree and the fields
// of Options, read from the non-test sources with go/parser. A name added to
// or removed from the API fails here until the lists below change with it,
// so the surface grows only by a visible diff.
func TestExportedSurface(t *testing.T) {
	want := map[string][]string{
		"func": {"Create", "Join", "New", "NewOnPager", "Open", "Pt2", "R2"},
		"type": {
			"BatchExecStats", "BuildStats", "ExternalOptions", "ExternalSortStats",
			"IOStats", "Item", "Metrics", "MutatePathStats", "Options", "Packing",
			"Point", "ReadPathStats", "Rect", "ShardIOStats", "Tree",
		},
		"value": {"MBR", "NewRect", "PackHilbert", "PackNearestX", "PackSTR", "PackTGS", "PointRect"},
		"*Tree method": {
			"BatchExecStats", "Bounds", "BulkLoad", "BulkLoadExternal", "Capacity",
			"CheckInvariants", "CheckPackedInvariants", "Close", "CompactInto", "Count",
			"CountContext", "Delete", "Dims", "DropCaches", "Flush", "Height", "Insert",
			"LastBuildStats", "LastExternalSortStats", "Len", "Metrics",
			"MutatePathStats", "NearestK", "NearestKContext", "ReadPathStats",
			"ResetStats", "Scan", "Search", "SearchBatch", "SearchBatchContext",
			"SearchBatchCount", "SearchContext", "SearchPoint", "ShardStats", "Stats",
			"Utilization",
		},
		"Options field": {"BufferPages", "BufferShards", "Capacity", "Dims", "ForcedReinsert", "PageSize", "Workers"},
	}
	got := map[string][]string{}
	files, err := filepath.Glob("*.go")
	if err != nil {
		t.Fatal(err)
	}
	fset := token.NewFileSet()
	for _, name := range files {
		if strings.HasSuffix(name, "_test.go") {
			continue
		}
		f, err := parser.ParseFile(fset, name, nil, parser.SkipObjectResolution)
		if err != nil {
			t.Fatal(err)
		}
		for _, decl := range f.Decls {
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
						if st, ok := s.Type.(*ast.StructType); ok && s.Name.Name == "Options" {
							for _, field := range st.Fields.List {
								for _, n := range field.Names {
									got["Options field"] = append(got["Options field"], n.Name)
								}
							}
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
	}
	for _, kind := range []string{"func", "type", "value", "*Tree method", "Options field"} {
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

// isTreePointer reports whether a receiver type is *Tree.
func isTreePointer(e ast.Expr) bool {
	star, ok := e.(*ast.StarExpr)
	if !ok {
		return false
	}
	id, ok := star.X.(*ast.Ident)
	return ok && id.Name == "Tree"
}
