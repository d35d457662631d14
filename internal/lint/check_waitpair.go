package lint

import (
	"go/ast"
)

var waitpairCheck = &Check{
	Name: "waitpair",
	Doc: "Flags goroutine launches with no completion signal: the literal's " +
		"body must call a WaitGroup Done, close a channel, or send on one — " +
		"or, for named-function goroutines and literals that signal " +
		"internally, a sync.WaitGroup Add call must appear earlier in the " +
		"same enclosing function. A goroutine nothing can wait for outlives " +
		"shutdown and races teardown; the checksum tests cannot catch a " +
		"leak that only bites under load. Intraprocedural.",
	run: func(p *pass) {
		p.eachFuncDecl(func(fd *ast.FuncDecl) {
			// ast.Inspect visits in source order, so addSeen is "a
			// WaitGroup.Add call appears earlier in this declaration".
			addSeen := false
			ast.Inspect(fd, func(n ast.Node) bool {
				switch x := n.(type) {
				case *ast.CallExpr:
					if fn := p.callee(x); fn != nil && fn.FullName() == "(*sync.WaitGroup).Add" {
						addSeen = true
					}
				case *ast.GoStmt:
					if lit, ok := x.Call.Fun.(*ast.FuncLit); ok && signalsCompletion(lit.Body) {
						return true
					}
					if !addSeen {
						p.reportf(x.Pos(), "waitpair",
							"goroutine in %s has no completion signal (no WaitGroup Add/Done pairing, channel send, or close); callers cannot wait for it", fd.Name.Name)
					}
				}
				return true
			})
		})
	},
}

// signalsCompletion reports whether a goroutine body contains a completion
// signal another goroutine can wait on: a Done() call, a close(), or a
// channel send.
func signalsCompletion(body *ast.BlockStmt) bool {
	found := false
	ast.Inspect(body, func(n ast.Node) bool {
		if found {
			return false
		}
		switch x := n.(type) {
		case *ast.SendStmt:
			found = true
		case *ast.CallExpr:
			switch f := x.Fun.(type) {
			case *ast.Ident:
				if f.Name == "close" {
					found = true
				}
			case *ast.SelectorExpr:
				if f.Sel.Name == "Done" {
					found = true
				}
			}
		}
		return !found
	})
	return found
}
