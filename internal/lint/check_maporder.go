package lint

import (
	"go/ast"
	"go/token"
	"go/types"
	"strings"
)

// emissionPrefixes name methods/functions that emit ordered output: page
// and byte writers, channel feeders, slice builders. A call with one of
// these prefixes (case-insensitive) inside a range-over-map body means map
// iteration order leaks into what the layer produces.
var emissionPrefixes = []string{
	"write", "emit", "append", "push", "put", "flush", "spill", "send", "encode",
}

var maporderCheck = &Check{
	Name: "maporder",
	Doc: "Flags range-over-map loops whose body emits ordered output " +
		"(appends to a slice, writes pages or bytes, sends on a channel) " +
		"inside the deterministic build layers (the root package, pack, " +
		"psort, extsort, rtree). Map iteration order is randomized per run, " +
		"so it must never reach build output: collect the keys, sort them, " +
		"then iterate. A loop that only collects into a slice which is " +
		"sorted later in the same block is accepted.",
	run: func(p *pass) {
		if !deterministicLayers[p.pkg.path] {
			return
		}
		// A range statement always sits in a statement list; the
		// statements after it there decide "sorted afterwards".
		p.inspect(func(n ast.Node) bool {
			var list []ast.Stmt
			switch b := n.(type) {
			case *ast.BlockStmt:
				list = b.List
			case *ast.CaseClause:
				list = b.Body
			case *ast.CommClause:
				list = b.Body
			}
			for i, st := range list {
				if l, ok := st.(*ast.LabeledStmt); ok {
					st = l.Stmt
				}
				s, ok := st.(*ast.RangeStmt)
				if !ok {
					continue
				}
				if _, isMap := p.pkg.info.TypeOf(s.X).Underlying().(*types.Map); !isMap {
					continue
				}
				for _, em := range findEmissions(s.Body) {
					if em.collectVar != "" && sortedAfter(em.collectVar, list[i+1:]) {
						continue
					}
					p.reportf(em.pos, "maporder",
						"map iteration order reaches ordered output (%s) in deterministic layer %s; sort the keys first",
						em.desc, pkgDisplay(p.pkg.path))
				}
			}
			return true
		})
	},
}

// emission is one ordered-output site inside a range-over-map body.
type emission struct {
	pos        token.Pos
	desc       string
	collectVar string // non-empty for `x = append(x, ...)` collection
}

// findEmissions scans a range body for statements whose effect depends on
// iteration order: slice collection via append, calls to emission-named
// functions, and channel sends. Nested function literals are included —
// they run (or are scheduled) per iteration.
func findEmissions(body *ast.BlockStmt) []emission {
	var out []emission
	ast.Inspect(body, func(n ast.Node) bool {
		switch x := n.(type) {
		case *ast.SendStmt:
			out = append(out, emission{pos: x.Arrow, desc: "channel send"})
		case *ast.AssignStmt:
			for i, rhs := range x.Rhs {
				call, ok := rhs.(*ast.CallExpr)
				if !ok {
					continue
				}
				if id, ok := call.Fun.(*ast.Ident); ok && id.Name == "append" && i < len(x.Lhs) {
					if lhs, ok := x.Lhs[i].(*ast.Ident); ok {
						out = append(out, emission{
							pos:        call.Pos(),
							desc:       "append to " + lhs.Name,
							collectVar: lhs.Name,
						})
					}
				}
			}
		case *ast.CallExpr:
			if id, ok := x.Fun.(*ast.Ident); ok && id.Name == "append" {
				return true // handled via the AssignStmt collection case
			}
			name := calleeBase(x)
			lower := strings.ToLower(name)
			for _, pre := range emissionPrefixes {
				if strings.HasPrefix(lower, pre) {
					out = append(out, emission{pos: x.Pos(), desc: "call to " + calleeName(x)})
					break
				}
			}
		}
		return true
	})
	return out
}

// calleeBase returns the bare function or method name of a call.
func calleeBase(call *ast.CallExpr) string {
	if id := calleeIdent(call); id != nil {
		return id.Name
	}
	return ""
}

// sortedAfter reports whether the collected variable is passed to a
// sort call (sort.*, slices.Sort*) in the statements following the loop
// in the same block.
func sortedAfter(varName string, rest []ast.Stmt) bool {
	for _, st := range rest {
		found := false
		ast.Inspect(st, func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok || found {
				return true
			}
			if !strings.Contains(strings.ToLower(calleeBase(call)), "sort") {
				return true
			}
			for _, arg := range call.Args {
				if id, ok := arg.(*ast.Ident); ok && id.Name == varName {
					found = true
				}
			}
			return true
		})
		if found {
			return true
		}
	}
	return false
}
