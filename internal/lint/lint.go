// Package lint implements strlint, the repository's own static analyzer
// (run as `go run ./cmd/strlint`). It is built on the standard
// library only, matching the module's stdlib-only rule: go/parser and
// go/ast for syntax, go/build for build constraints, and go/types —
// with the standard library type-checked from source — as the only source
// of type information (load.go). Its checks are tuned to this codebase
// rather than to Go in general, and it leaves to `go vet`, which check.sh
// runs first, what vet already enforces: loop variables captured by
// go/defer literals (loopclosure; moot since go 1.22) and locks copied by
// value (copylocks).
//
// The package is organized as an analyzer registry (registry.go): each
// check is a self-contained analyzer with a name, a doc string, and a
// per-package run function over the package's AST and types.Info. Every
// run applies every check to every package of the module, and reports;
// it rewrites nothing. The registered checks:
//
//	floateq     ==/!= between floating-point values.
//	droppederr  discarded errors from the error-critical packages
//	            (storage, buffer, query, server, extsort, pack,
//	            encoding/binary).
//	panics      panic() in library code outside must*/Must*/init.
//	imports     cross-layer imports violating the table in rules.go.
//	maporder    range over a map that emits ordered output (appends,
//	            page writes, channel sends) in the deterministic build
//	            layers — iteration order would leak into the output.
//	timerand    time.Now/Since/Until or math/rand in the deterministic
//	            build layers.
//	guardedby   fields annotated `// guarded by <mu>` accessed without
//	            the lock held.
//	waitpair    goroutines with no completion signal (no WaitGroup
//	            Add/Done pairing, channel send, or close).
//	ctxprop     context-taking exported functions that call a
//	            context-free sibling of a *Context variant, and
//	            context.Background()/TODO() in library packages.
//	directive   malformed //strlint:ignore comments.
//
// A finding is suppressed by a directive comment on the same line or the
// line above:
//
//	//strlint:ignore <check>[,<check>...] <reason>
//
// or for a whole file:
//
//	//strlint:file-ignore <check> <reason>
//
// The reason is mandatory: every suppression documents why the flagged
// code is deliberate.
package lint

import (
	"fmt"
	"go/token"
	"runtime"
	"slices"
	"strings"

	"strtree/internal/par"
)

// Finding is one diagnostic produced by a check.
type Finding struct {
	Pos     token.Position
	Check   string
	Message string
}

// String renders the finding in the conventional file:line:col form.
func (f Finding) String() string {
	return fmt.Sprintf("%s:%d:%d: %s: %s", f.Pos.Filename, f.Pos.Line, f.Pos.Column, f.Check, f.Message)
}

// Run executes every check over every loaded package and returns the
// surviving findings sorted by position. Packages are analyzed in
// parallel; output order is deterministic.
func (a *Analyzer) Run() []Finding {
	paths := a.Packages()
	// The syntax and the type information are read-only after Load, so
	// checks for different packages never share mutable state.
	perPkg := make([][]Finding, len(paths))
	par.Each(len(paths), runtime.GOMAXPROCS(0), func(_, i int) error {
		ps := &pass{a: a, pkg: a.pkgs[paths[i]]}
		for _, c := range registry {
			c.run(ps)
		}
		perPkg[i] = ps.out
		return nil
	})

	var all []Finding
	for _, fs := range perPkg {
		all = append(all, fs...)
	}
	all = a.suppress(all)
	slices.SortFunc(all, func(a, b Finding) int {
		if c := strings.Compare(a.Pos.Filename, b.Pos.Filename); c != 0 {
			return c
		}
		if a.Pos.Line != b.Pos.Line {
			return a.Pos.Line - b.Pos.Line
		}
		if a.Pos.Column != b.Pos.Column {
			return a.Pos.Column - b.Pos.Column
		}
		return strings.Compare(a.Check, b.Check)
	})
	return all
}

// suppress drops findings covered by an ignore directive and validates the
// directives themselves.
func (a *Analyzer) suppress(findings []Finding) []Finding {
	byFile := map[string]*fileInfo{}
	for _, p := range a.pkgs {
		for _, f := range p.files {
			byFile[f.name] = f
		}
	}
	out := findings[:0]
	for _, fd := range findings {
		if fd.Check == "directive" {
			out = append(out, fd) // directive misuse is never suppressible
			continue
		}
		f := byFile[fd.Pos.Filename]
		if f == nil || !f.suppressed(fd.Check, fd.Pos.Line) {
			out = append(out, fd)
		}
	}
	return out
}

// suppressed reports whether a finding of the given check at the given
// line is covered by one of the file's directives.
func (f *fileInfo) suppressed(check string, line int) bool {
	for _, d := range f.ignores {
		if !d.covers(check) {
			continue
		}
		if d.file || d.line == line || d.line == line-1 {
			return true
		}
	}
	return false
}

type directive struct {
	line    int
	checks  []string
	reason  string
	file    bool   // file-scope (//strlint:file-ignore)
	problem string // non-empty when the directive is malformed
}

func (d directive) covers(check string) bool {
	if d.problem != "" {
		return false // a malformed directive never suppresses anything
	}
	for _, c := range d.checks {
		if c == check {
			return true
		}
	}
	return false
}
