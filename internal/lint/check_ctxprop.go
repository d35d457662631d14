package lint

import (
	"go/ast"
	"go/types"
	"strings"
)

var ctxpropCheck = &Check{
	Name: "ctxprop",
	Doc: "Enforces context propagation in library packages: an exported " +
		"function whose first parameter is a context.Context must not call " +
		"a function or method that has a *Context sibling without using it " +
		"— dropping the context there silently disables cancellation for " +
		"the whole traversal. Also flags context.Background() and " +
		"context.TODO() in library code, which sever the caller's " +
		"cancellation chain. Suggested fix: call the Context variant with " +
		"the incoming context.",
	run: func(p *pass) {
		if !libraryPackage(p.pkg.path) {
			return
		}
		p.inspect(func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok {
				return true
			}
			if fn := p.callee(call); fn != nil && (fn.FullName() == "context.Background" || fn.FullName() == "context.TODO") {
				p.reportf(call.Pos(), "ctxprop",
					"context.%s in library package %s severs the caller's cancellation chain; plumb a ctx parameter through instead", fn.Name(), pkgDisplay(p.pkg.path))
			}
			return true
		})
		p.eachFuncDecl(func(fd *ast.FuncDecl) { checkCtxVariants(p, fd) })
	},
}

// checkCtxVariants flags calls inside an exported ctx-taking function to
// callees that have a *Context sibling the function ignores.
func checkCtxVariants(p *pass, fd *ast.FuncDecl) {
	if !fd.Name.IsExported() || fd.Body == nil {
		return
	}
	// The incoming context: a named first parameter of type context.Context.
	params := p.pkg.info.Defs[fd.Name].Type().(*types.Signature).Params()
	if params.Len() == 0 {
		return
	}
	ctx := params.At(0)
	if ctx.Name() == "" || ctx.Name() == "_" || ctx.Type().String() != "context.Context" {
		return
	}
	ast.Inspect(fd.Body, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		for _, arg := range call.Args {
			if id, ok := arg.(*ast.Ident); ok && p.pkg.info.Uses[id] == ctx {
				return true // the context is already passed down
			}
		}
		fn := p.callee(call)
		if fn == nil || strings.HasSuffix(fn.Name(), "Context") || !hasContextSibling(p, call, fn) {
			return true
		}
		name := fn.Name()
		p.reportf(call.Pos(), "ctxprop",
			"call to %s ignores the incoming context; use %sContext(%s, ...) so cancellation propagates", name, name, ctx.Name())
		return true
	})
}

// hasContextSibling reports whether fn, the callee of call, has a sibling
// named fn.Name()+"Context": a function of the package under check, or a
// method of the value the call selects fn on.
func hasContextSibling(p *pass, call *ast.CallExpr, fn *types.Func) bool {
	var sibling types.Object
	if fn.Type().(*types.Signature).Recv() == nil {
		if fn.Pkg() != p.pkg.types {
			return false
		}
		sibling = fn.Pkg().Scope().Lookup(fn.Name() + "Context")
	} else {
		recv := ast.Unparen(call.Fun).(*ast.SelectorExpr).X // a method is only ever called through a selector
		sibling, _, _ = types.LookupFieldOrMethod(p.pkg.info.TypeOf(recv), true, p.pkg.types, fn.Name()+"Context")
	}
	_, ok := sibling.(*types.Func)
	return ok
}
