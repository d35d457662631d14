package lint

import (
	"go/ast"
	"go/types"
	"strings"
)

var droppederrCheck = &Check{
	Name: "droppederr",
	Doc: "Flags statement-level calls into the error-critical packages " +
		"(storage, buffer, query, server, extsort, pack, encoding/binary) " +
		"whose error result is discarded, including go and defer calls. A " +
		"dropped error in those layers corrupts a persistent tree or " +
		"silently truncates results. Suggested fix: discard explicitly " +
		"with a blank assignment.",
	run: func(p *pass) {
		p.inspect(func(n ast.Node) bool {
			var call *ast.CallExpr
			how := ""
			switch s := n.(type) {
			case *ast.ExprStmt:
				call, _ = s.X.(*ast.CallExpr)
			case *ast.DeferStmt:
				call, how = s.Call, "defer"
			case *ast.GoStmt:
				call, how = s.Call, "go"
			}
			if call == nil {
				return true
			}
			// The package that declares the callee — for a method called
			// through an interface, the interface's package.
			fn := p.callee(call)
			if fn == nil || fn.Pkg() == nil {
				return true
			}
			pkg, _ := p.a.relImport(fn.Pkg().Path())
			results := fn.Type().(*types.Signature).Results()
			if !droppedErrTargets[pkg] || results.Len() == 0 ||
				!types.Identical(results.At(results.Len()-1).Type(), types.Universe.Lookup("error").Type()) {
				return true
			}
			verb := "call"
			if how != "" {
				verb = how + " call"
			}
			// A plain statement call can be fixed mechanically by
			// blanking every result; go/defer calls need a real
			// handler, so no fix is offered there.
			var fix *Fix
			if how == "" {
				blanks := strings.Repeat("_, ", results.Len()-1) + "_ = "
				fix = &Fix{
					Message: "discard the error explicitly",
					Edits:   []Edit{p.insertEdit(call.Pos(), blanks)},
				}
			}
			p.report(call.Pos(), "droppederr", fix,
				"error from %s %s %s is discarded; handle it, or discard explicitly with _ =", pkg, verb, calleeName(call))
			return true
		})
	},
}
