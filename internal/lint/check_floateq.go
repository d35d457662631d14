package lint

import (
	"go/ast"
	"go/token"
	"go/types"
)

var floateqCheck = &Check{
	Name: "floateq",
	Doc: "Flags == and != where either operand is floating point. Exact " +
		"float comparison is almost always a rounding bug in geometry code; " +
		"compare with a tolerance, or annotate the rare exact-equality " +
		"contract with //strlint:ignore floateq <reason>.",
	run: func(p *pass) {
		p.inspect(func(n ast.Node) bool {
			x, ok := n.(*ast.BinaryExpr)
			if !ok || (x.Op != token.EQL && x.Op != token.NEQ) {
				return true
			}
			if p.isFloat(x.X) || p.isFloat(x.Y) {
				p.reportf(x.OpPos, "floateq",
					"%s on float operands; compare with a tolerance, or add //strlint:ignore floateq <reason> if exact equality is the contract", x.Op)
			}
			return true
		})
	},
}

// isFloat reports whether e's type is float32/float64, a defined type
// whose underlying type is, or an untyped float constant.
func (p *pass) isFloat(e ast.Expr) bool {
	b, ok := p.pkg.info.TypeOf(e).Underlying().(*types.Basic)
	return ok && b.Info()&types.IsFloat != 0
}
