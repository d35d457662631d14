// Package lint implements strlint, the repository's own static analyzer
// (run as `go run ./cmd/strlint ./...`). It is built on the standard
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
// per-package run function over the package's AST and types.Info,
// optionally attaching suggested fixes that `strlint -fix` applies as
// text edits. The registered checks:
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
// code is deliberate. Findings may also be grandfathered in a committed
// baseline file (baseline.go) keyed by check, file and count.
package lint

import (
	"fmt"
	"go/token"
	"runtime"
	"slices"
	"strings"
	"sync"
)

// Finding is one diagnostic produced by a check.
type Finding struct {
	Pos     token.Position
	Check   string
	Message string
	// Fix, when non-nil, is a suggested fix `strlint -fix` can apply.
	Fix *Fix
}

// String renders the finding in the conventional file:line:col form.
func (f Finding) String() string {
	return fmt.Sprintf("%s:%d:%d: %s: %s", f.Pos.Filename, f.Pos.Line, f.Pos.Column, f.Check, f.Message)
}

// Fix is a suggested repair for a finding: a set of byte-range text
// edits within a single file.
type Fix struct {
	// Message describes the repair, e.g. "discard the error explicitly".
	Message string
	Edits   []Edit
}

// Edit replaces the byte range [Offset, End) of Filename with Text.
// Offset == End inserts.
type Edit struct {
	Filename string
	Offset   int
	End      int
	Text     string
}

// Run executes the named checks (nil means all) over the given packages
// (import paths relative to the module root; nil means every loaded
// package) and returns the surviving findings sorted by position.
// Packages are analyzed in parallel; output order is deterministic.
func (a *Analyzer) Run(pkgPaths, checks []string) ([]Finding, error) {
	var enabled []*Check
	if len(checks) == 0 {
		enabled = registry
	} else {
		for _, name := range checks {
			c := checkByName(name)
			if c == nil {
				return nil, fmt.Errorf("lint: unknown check %q (have %s)", name, strings.Join(AllChecks(), ", "))
			}
			enabled = append(enabled, c)
		}
	}
	if len(pkgPaths) == 0 {
		pkgPaths = a.Packages()
	}
	var pkgs []*pkgInfo
	for _, path := range pkgPaths {
		p, ok := a.pkgs[path]
		if !ok {
			return nil, fmt.Errorf("lint: package %q not found in module %s", path, a.module)
		}
		pkgs = append(pkgs, p)
	}
	slices.SortFunc(pkgs, func(a, b *pkgInfo) int { return strings.Compare(a.path, b.path) })

	// One goroutine per package, bounded by GOMAXPROCS. The syntax and the
	// type information are read-only after Load, so checks for different
	// packages never share mutable state.
	perPkg := make([][]Finding, len(pkgs))
	sem := make(chan struct{}, runtime.GOMAXPROCS(0))
	var wg sync.WaitGroup
	for i, p := range pkgs {
		wg.Add(1)
		go func(i int, p *pkgInfo) {
			defer wg.Done()
			sem <- struct{}{}
			defer func() { <-sem }()
			ps := &pass{a: a, pkg: p}
			for _, c := range enabled {
				c.run(ps)
			}
			perPkg[i] = ps.out
		}(i, p)
	}
	wg.Wait()

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
	return all, nil
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
