package lint

import (
	"go/ast"
	"go/types"
	"strings"
)

var panicsCheck = &Check{
	Name: "panics",
	Doc: "Flags panic() in library packages (the root package and " +
		"internal/*) outside must*/Must* helpers and init functions. " +
		"Library code returns errors; a panic crossing the API boundary " +
		"takes down a serving process.",
	run: func(p *pass) {
		if !libraryPackage(p.pkg.path) {
			return
		}
		p.eachFuncDecl(func(fd *ast.FuncDecl) {
			name := fd.Name.Name
			if strings.HasPrefix(strings.ToLower(name), "must") || name == "init" {
				return
			}
			ast.Inspect(fd, func(n ast.Node) bool {
				call, ok := n.(*ast.CallExpr)
				if !ok {
					return true
				}
				id, ok := call.Fun.(*ast.Ident)
				if !ok || id.Name != "panic" {
					return true
				}
				if _, builtin := p.pkg.info.Uses[id].(*types.Builtin); builtin {
					p.reportf(call.Pos(), "panics",
						"panic in library function %s; return an error, or mark a documented contract with //strlint:ignore panics <reason>", name)
				}
				return true
			})
		})
	},
}
