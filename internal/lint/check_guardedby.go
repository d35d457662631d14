package lint

import (
	"go/ast"
	"go/token"
	"go/types"
	"strings"
)

var guardedbyCheck = &Check{
	Name: "guardedby",
	Doc: "Enforces `// guarded by <mu>` field annotations: a method that " +
		"reads or writes an annotated field of its (pointer) receiver " +
		"without the named mutex held is a finding. The lock-state scan is " +
		"intraprocedural and linear: Lock/RLock adds the mutex to the held " +
		"set, Unlock/RUnlock removes it, `defer mu.Unlock()` keeps it held " +
		"to the end, and effects inside branches are discarded on exit. " +
		"Methods whose name ends in Locked are callee-holds-lock by " +
		"convention and are skipped. An annotation naming a nonexistent " +
		"field is itself a finding. (Copying a lock by value is go vet's " +
		"copylocks, not repeated here.)",
	run: runGuardedby,
}

// guardedType records one struct's `// guarded by` annotations.
type guardedType struct {
	guards map[string]string // field name -> mutex field name
}

func runGuardedby(p *pass) {
	if !libraryPackage(p.pkg.path) {
		return
	}
	annotated := collectGuards(p)
	p.eachFuncDecl(func(fd *ast.FuncDecl) {
		if fd.Recv == nil || fd.Body == nil || strings.HasSuffix(fd.Name.Name, "Locked") {
			return // not a method, or callee-holds-lock by convention
		}
		recv := p.pkg.info.Defs[fd.Name].Type().(*types.Signature).Recv()
		t := recv.Type()
		if ptr, ok := t.(*types.Pointer); ok {
			t = ptr.Elem()
		}
		named, ok := t.(*types.Named)
		if !ok || recv.Name() == "" || recv.Name() == "_" {
			return
		}
		if gt, ok := annotated[named.Obj().Name()]; ok {
			g := &guardScan{p: p, recv: recv, guards: gt.guards, method: fd.Name.Name}
			g.stmts(fd.Body.List, map[string]bool{})
		}
	})
}

// collectGuards parses `// guarded by <mu>` comments on struct fields and
// validates that the named mutex is itself a field of the struct.
func collectGuards(p *pass) map[string]*guardedType {
	out := map[string]*guardedType{}
	for _, f := range p.pkg.files {
		for _, decl := range f.ast.Decls {
			gd, ok := decl.(*ast.GenDecl)
			if !ok {
				continue
			}
			for _, spec := range gd.Specs {
				ts, ok := spec.(*ast.TypeSpec)
				if !ok {
					continue
				}
				st, ok := ts.Type.(*ast.StructType)
				if !ok {
					continue
				}
				fieldNames := map[string]bool{}
				for _, fld := range st.Fields.List {
					for _, n := range fld.Names {
						fieldNames[n.Name] = true
					}
				}
				for _, fld := range st.Fields.List {
					mu, ok := guardAnnotation(fld)
					if !ok {
						continue
					}
					if !fieldNames[mu] {
						p.reportf(fld.Pos(), "guardedby",
							"guarded-by annotation names %q, which is not a field of %s", mu, ts.Name.Name)
						continue
					}
					gt := out[ts.Name.Name]
					if gt == nil {
						gt = &guardedType{guards: map[string]string{}}
						out[ts.Name.Name] = gt
					}
					for _, n := range fld.Names {
						gt.guards[n.Name] = mu
					}
				}
			}
		}
	}
	return out
}

// guardAnnotation extracts the mutex name from a field's trailing or doc
// comment of the form `// guarded by <mu>`. The annotation must start the
// comment — prose that merely mentions "guarded by the pool mutex"
// mid-sentence is not an annotation — and <mu> must be a plain
// identifier.
func guardAnnotation(fld *ast.Field) (string, bool) {
	for _, cg := range []*ast.CommentGroup{fld.Comment, fld.Doc} {
		if cg == nil {
			continue
		}
		for _, c := range cg.List {
			text := strings.TrimSpace(strings.TrimPrefix(c.Text, "//"))
			rest, ok := strings.CutPrefix(text, "guarded by ")
			if !ok {
				continue
			}
			fields := strings.Fields(rest)
			if len(fields) == 0 {
				continue
			}
			mu := strings.TrimRight(fields[0], ".,;")
			if !isIdent(mu) {
				continue
			}
			return mu, true
		}
	}
	return "", false
}

func isIdent(s string) bool {
	if s == "" {
		return false
	}
	for i, r := range s {
		alpha := r == '_' || (r >= 'a' && r <= 'z') || (r >= 'A' && r <= 'Z')
		if !alpha && (i == 0 || r < '0' || r > '9') {
			return false
		}
	}
	return true
}

// guardScan walks one method body tracking which mutexes are held.
type guardScan struct {
	p        *pass
	recv     *types.Var        // the method's receiver
	guards   map[string]string // field -> mutex
	method   string
	reported map[token.Pos]bool
}

func (g *guardScan) stmts(list []ast.Stmt, held map[string]bool) {
	for _, st := range list {
		g.stmt(st, held)
	}
}

func copyHeld(held map[string]bool) map[string]bool {
	out := make(map[string]bool, len(held))
	for k, v := range held {
		out[k] = v
	}
	return out
}

// lockOp recognizes recv.mu.Lock/RLock/Unlock/RUnlock calls, returning the
// mutex field name and "lock" or "unlock".
func (g *guardScan) lockOp(e ast.Expr) (string, string) {
	call, ok := e.(*ast.CallExpr)
	if !ok {
		return "", ""
	}
	sel, ok := call.Fun.(*ast.SelectorExpr)
	if !ok {
		return "", ""
	}
	inner, ok := sel.X.(*ast.SelectorExpr)
	if !ok {
		return "", ""
	}
	base, ok := inner.X.(*ast.Ident)
	if !ok || g.p.pkg.info.Uses[base] != g.recv {
		return "", ""
	}
	switch sel.Sel.Name {
	case "Lock", "RLock":
		return inner.Sel.Name, "lock"
	case "Unlock", "RUnlock":
		return inner.Sel.Name, "unlock"
	}
	return "", ""
}

func (g *guardScan) stmt(st ast.Stmt, held map[string]bool) {
	switch s := st.(type) {
	case *ast.ExprStmt:
		if mu, op := g.lockOp(s.X); op != "" {
			if op == "lock" {
				held[mu] = true
			} else {
				delete(held, mu)
			}
			return
		}
		g.check(s.X, held)
	case *ast.DeferStmt:
		if _, op := g.lockOp(s.Call); op == "unlock" {
			return // deferred unlock: the lock stays held to the end
		}
		g.check(s.Call, held)
	case *ast.BlockStmt:
		g.stmts(s.List, held)
	case *ast.IfStmt:
		if s.Init != nil {
			g.stmt(s.Init, held)
		}
		g.check(s.Cond, held)
		g.stmts(s.Body.List, copyHeld(held))
		if s.Else != nil {
			g.stmt(s.Else, copyHeld(held))
		}
	case *ast.ForStmt:
		if s.Init != nil {
			g.stmt(s.Init, held)
		}
		if s.Cond != nil {
			g.check(s.Cond, held)
		}
		inner := copyHeld(held)
		if s.Post != nil {
			g.stmt(s.Post, inner)
		}
		g.stmts(s.Body.List, inner)
	case *ast.RangeStmt:
		g.check(s.X, held)
		g.stmts(s.Body.List, copyHeld(held))
	case *ast.SwitchStmt:
		if s.Init != nil {
			g.stmt(s.Init, held)
		}
		if s.Tag != nil {
			g.check(s.Tag, held)
		}
		g.caseClauses(s.Body, held)
	case *ast.TypeSwitchStmt:
		g.caseClauses(s.Body, held)
	case *ast.SelectStmt:
		for _, cc := range s.Body.List {
			if clause, ok := cc.(*ast.CommClause); ok {
				inner := copyHeld(held)
				if clause.Comm != nil {
					g.stmt(clause.Comm, inner)
				}
				g.stmts(clause.Body, inner)
			}
		}
	case *ast.GoStmt:
		// The spawned goroutine does not inherit the held set.
		g.check(s.Call, map[string]bool{})
	case *ast.AssignStmt:
		for _, e := range s.Rhs {
			g.check(e, held)
		}
		for _, e := range s.Lhs {
			g.check(e, held)
		}
	case *ast.ReturnStmt:
		for _, e := range s.Results {
			g.check(e, held)
		}
	case *ast.SendStmt:
		g.check(s.Chan, held)
		g.check(s.Value, held)
	case *ast.IncDecStmt:
		g.check(s.X, held)
	case *ast.DeclStmt:
		ast.Inspect(s, func(n ast.Node) bool {
			if e, ok := n.(ast.Expr); ok {
				g.check(e, held)
				return false
			}
			return true
		})
	case *ast.LabeledStmt:
		g.stmt(s.Stmt, held)
	}
}

func (g *guardScan) caseClauses(body *ast.BlockStmt, held map[string]bool) {
	for _, cc := range body.List {
		if clause, ok := cc.(*ast.CaseClause); ok {
			inner := copyHeld(held)
			for _, e := range clause.List {
				g.check(e, inner)
			}
			g.stmts(clause.Body, inner)
		}
	}
}

// check inspects one expression for unguarded accesses to annotated
// fields. Function literals are skipped: when they run is unknown, and
// unknown means no finding.
func (g *guardScan) check(e ast.Expr, held map[string]bool) {
	ast.Inspect(e, func(n ast.Node) bool {
		if _, ok := n.(*ast.FuncLit); ok {
			return false
		}
		sel, ok := n.(*ast.SelectorExpr)
		if !ok {
			return true
		}
		base, ok := sel.X.(*ast.Ident)
		if !ok || g.p.pkg.info.Uses[base] != g.recv {
			return true
		}
		mu, guarded := g.guards[sel.Sel.Name]
		if !guarded || held[mu] {
			return true
		}
		if g.reported == nil {
			g.reported = map[token.Pos]bool{}
		}
		if g.reported[sel.Pos()] {
			return true
		}
		g.reported[sel.Pos()] = true
		g.p.reportf(sel.Sel.Pos(), "guardedby",
			"%s.%s is guarded by %s but accessed in %s without it held; lock %s first or rename the method with a Locked suffix",
			g.recv.Name(), sel.Sel.Name, mu, g.method, mu)
		return true
	})
}
