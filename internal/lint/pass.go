package lint

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"strings"
)

// pass carries one package through the enabled checks: its syntax, its
// go/types information and the finding sink. A pass is used by one
// goroutine at a time.
type pass struct {
	a   *Analyzer
	pkg *pkgInfo
	out []Finding
}

// reportf records a finding at pos.
func (p *pass) reportf(pos token.Pos, check, format string, args ...any) {
	p.report(pos, check, nil, format, args...)
}

// report records a finding at pos with an optional suggested fix.
func (p *pass) report(pos token.Pos, check string, fix *Fix, format string, args ...any) {
	p.out = append(p.out, Finding{
		Pos:     p.a.fset.Position(pos),
		Check:   check,
		Message: fmt.Sprintf(format, args...),
		Fix:     fix,
	})
}

// reportAt records a finding at an already-resolved position (used by the
// directive check, whose subjects are comments without AST nodes).
func (p *pass) reportAt(pos token.Position, check, format string, args ...any) {
	p.out = append(p.out, Finding{Pos: pos, Check: check, Message: fmt.Sprintf(format, args...)})
}

// inspect walks every file of the package in source order.
func (p *pass) inspect(fn func(ast.Node) bool) {
	for _, f := range p.pkg.files {
		ast.Inspect(f.ast, fn)
	}
}

// eachFuncDecl calls fn for every function and method declaration of the
// package. Checks that name the enclosing function in their message walk
// declarations; code in package-level initializers has none to name.
func (p *pass) eachFuncDecl(fn func(*ast.FuncDecl)) {
	for _, f := range p.pkg.files {
		for _, decl := range f.ast.Decls {
			if fd, ok := decl.(*ast.FuncDecl); ok {
				fn(fd)
			}
		}
	}
}

// calleeIdent returns the identifier that names a call's function: f in
// f(x), Sel in pkg.Sel(x) and v.Sel(x). nil for calls of anything else
// (function literals, results of other calls, conversions to type
// literals).
func calleeIdent(call *ast.CallExpr) *ast.Ident {
	switch fun := ast.Unparen(call.Fun).(type) {
	case *ast.Ident:
		return fun
	case *ast.SelectorExpr:
		return fun.Sel
	}
	return nil
}

// callee returns the declared function or method a call invokes, or nil
// when there is none to name: calls through function values, conversions
// and builtins.
func (p *pass) callee(call *ast.CallExpr) *types.Func {
	fn, _ := p.pkg.info.Uses[calleeIdent(call)].(*types.Func)
	return fn
}

// calleeName renders a call's function for messages: f, x.f, or just f
// when the operand is not a plain identifier.
func calleeName(call *ast.CallExpr) string {
	switch f := call.Fun.(type) {
	case *ast.Ident:
		return f.Name
	case *ast.SelectorExpr:
		if x, ok := f.X.(*ast.Ident); ok {
			return x.Name + "." + f.Sel.Name
		}
		return f.Sel.Name
	}
	return "(call)"
}

// offsetOf translates a token.Pos into (filename, byte offset) for fix
// edits.
func (p *pass) offsetOf(pos token.Pos) (string, int) {
	position := p.a.fset.Position(pos)
	return position.Filename, position.Offset
}

// replaceEdit builds an edit replacing [from, to) with text.
func (p *pass) replaceEdit(from, to token.Pos, text string) Edit {
	name, off := p.offsetOf(from)
	_, end := p.offsetOf(to)
	return Edit{Filename: name, Offset: off, End: end, Text: text}
}

// insertEdit builds an edit inserting text at pos.
func (p *pass) insertEdit(pos token.Pos, text string) Edit {
	return p.replaceEdit(pos, pos, text)
}

// libraryPackage reports whether path is library code (the root package or
// internal/*), where the panics, guardedby and ctxprop checks apply.
func libraryPackage(path string) bool {
	return path == "" || strings.HasPrefix(path, "internal/")
}

func pkgDisplay(path string) string {
	if path == "" {
		return "the root package"
	}
	return path
}
