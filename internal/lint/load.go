package lint

import (
	"errors"
	"fmt"
	"go/ast"
	"go/build"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"os"
	"path/filepath"
	"slices"
	"strings"
)

// Analyzer holds one parsed and type-checked module.
type Analyzer struct {
	fset   *token.FileSet
	root   string
	module string
	pkgs   map[string]*pkgInfo // keyed by module-relative import path ("" = root package)
}

// pkgInfo is one package: its files and what go/types knows about them.
type pkgInfo struct {
	path  string // module-relative import path; "" for the module root package
	files []*fileInfo
	types *types.Package // nil until checked
	info  *types.Info
}

// fileInfo is one parsed source file.
type fileInfo struct {
	name    string // absolute path, as recorded in findings
	ast     *ast.File
	ignores []directive
}

// Load parses every non-test Go file under root that the current
// platform's build constraints select (skipping testdata, hidden
// directories and vendored code) and type-checks every package. root must
// contain a go.mod naming the module. Nested modules are loaded as
// directories of the outer one, which is what their import paths say
// (strtree/bench lives in bench/). A package that does not type-check is
// an error: every check reads go/types' answers, and a wrong answer would
// be a silent false negative.
//
// Load turns cgo off in go/build's default context, for the rest of the
// process. The standard library is type-checked from source (importer
// "source") through that context; with cgo on, net and os/user would be
// run through `go tool cgo` and a C compiler, while their pure-Go files
// declare the same API and check on a machine that has Go and nothing
// else. The same setting applies to the module's own files: one that
// imports "C" is excluded like any other file whose constraints do not
// match, and a package that needs its symbols fails to type-check.
func Load(root string) (*Analyzer, error) {
	build.Default.CgoEnabled = false
	abs, err := filepath.Abs(root)
	if err != nil {
		return nil, err
	}
	module, goVersion, err := readGoMod(abs)
	if err != nil {
		return nil, err
	}
	a := &Analyzer{
		fset:   token.NewFileSet(),
		root:   abs,
		module: module,
		pkgs:   map[string]*pkgInfo{},
	}
	if err := a.parseTree(); err != nil {
		return nil, err
	}
	if err := a.typeCheck(goVersion); err != nil {
		return nil, err
	}
	return a, nil
}

// Module returns the module path from go.mod.
func (a *Analyzer) Module() string { return a.module }

// Packages returns the loaded packages' module-relative import paths,
// sorted ("" is the root package).
func (a *Analyzer) Packages() []string {
	out := make([]string, 0, len(a.pkgs))
	for path := range a.pkgs {
		out = append(out, path)
	}
	slices.Sort(out)
	return out
}

// readGoMod returns the module path and the language version ("go1.22";
// "" when go.mod has no go line) from root's go.mod.
func readGoMod(root string) (module, goVersion string, err error) {
	data, err := os.ReadFile(filepath.Join(root, "go.mod"))
	if err != nil {
		return "", "", fmt.Errorf("lint: %w", err)
	}
	for _, line := range strings.Split(string(data), "\n") {
		switch fields := strings.Fields(line); {
		case len(fields) == 2 && fields[0] == "module":
			module = fields[1]
		case len(fields) == 2 && fields[0] == "go":
			goVersion = "go" + fields[1]
		}
	}
	if module == "" {
		return "", "", fmt.Errorf("lint: no module line in %s/go.mod", root)
	}
	return module, goVersion, nil
}

func (a *Analyzer) parseTree() error {
	return filepath.WalkDir(a.root, func(path string, d os.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			name := d.Name()
			if path != a.root && (strings.HasPrefix(name, ".") || strings.HasPrefix(name, "_") ||
				name == "testdata" || name == "vendor") {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(path, ".go") || strings.HasSuffix(path, "_test.go") {
			return nil
		}
		// Build constraints (file-name suffixes and //go:build lines): two
		// files declaring the same function for different platforms are
		// one declaration, not a redeclaration.
		if ok, err := build.Default.MatchFile(filepath.Dir(path), d.Name()); err != nil || !ok {
			return err
		}
		return a.parseFile(path)
	})
}

// parseFile parses one file into its directory's package. WalkDir visits
// a directory's entries in name order, so p.files ends up sorted.
func (a *Analyzer) parseFile(path string) error {
	src, err := parser.ParseFile(a.fset, path, nil, parser.ParseComments)
	if err != nil {
		return fmt.Errorf("lint: %w", err)
	}
	rel, err := filepath.Rel(a.root, filepath.Dir(path))
	if err != nil {
		return err
	}
	pkgPath := filepath.ToSlash(rel)
	if pkgPath == "." {
		pkgPath = ""
	}
	p := a.pkgs[pkgPath]
	if p == nil {
		p = &pkgInfo{path: pkgPath}
		a.pkgs[pkgPath] = p
	}
	p.files = append(p.files, &fileInfo{name: path, ast: src, ignores: parseDirectives(a.fset, src)})
	return nil
}

// relImport maps an import path onto the analyzer's package key: the
// module path itself is "" and module/x/y is x/y. A path outside the
// module comes back unchanged, with ok false.
func (a *Analyzer) relImport(importPath string) (rel string, ok bool) {
	if importPath == a.module {
		return "", true
	}
	return strings.CutPrefix(importPath, a.module+"/")
}

// checker type-checks the module's packages on demand. As the
// types.Importer of every package it checks, it serves a module-local
// import from the parsed files — checking that package first, so each is
// checked once, in import order — and everything else from the standard
// library's source.
type checker struct {
	a    *Analyzer
	conf types.Config
	std  types.Importer
	busy map[*pkgInfo]bool // packages being checked: the import-cycle guard
	errs []types.Error
}

func (a *Analyzer) typeCheck(goVersion string) error {
	c := &checker{
		a:    a,
		std:  importer.ForCompiler(a.fset, "source", nil),
		busy: map[*pkgInfo]bool{},
	}
	c.conf = types.Config{
		GoVersion: goVersion,
		Importer:  c,
		Error:     func(err error) { c.errs = append(c.errs, err.(types.Error)) },
	}
	for _, path := range a.Packages() {
		if p := a.pkgs[path]; p.types == nil {
			c.check(p)
		}
	}
	if len(c.errs) == 0 {
		return nil
	}
	// One line per error in the findings' file:line:col form; past the
	// first ten the rest are consequences more often than causes.
	const maxShown = 10
	var b strings.Builder
	fmt.Fprintf(&b, "lint: module %s does not type-check (%d error(s)):", a.module, len(c.errs))
	for i, e := range c.errs {
		if i == maxShown {
			fmt.Fprintf(&b, "\n... and %d more", len(c.errs)-maxShown)
			break
		}
		pos := a.fset.Position(e.Pos)
		fmt.Fprintf(&b, "\n%s:%d:%d: %s", relSlash(a.root, pos.Filename), pos.Line, pos.Column, e.Msg)
	}
	return errors.New(b.String())
}

// Import implements types.Importer.
func (c *checker) Import(path string) (*types.Package, error) {
	rel, local := c.a.relImport(path)
	if !local {
		return c.std.Import(path)
	}
	p := c.a.pkgs[rel]
	switch {
	case p == nil:
		return nil, fmt.Errorf("no Go files for %s in module %s", path, c.a.module)
	case c.busy[p]:
		return nil, fmt.Errorf("import cycle through %s", path)
	case p.types == nil:
		c.check(p)
	}
	return p.types, nil
}

// check type-checks one package; errors reach c.errs through conf.Error,
// and the checker carries on past them, so p.types is always set.
func (c *checker) check(p *pkgInfo) {
	c.busy[p] = true
	defer delete(c.busy, p)
	files := make([]*ast.File, len(p.files))
	for i, f := range p.files {
		files[i] = f.ast
	}
	p.info = &types.Info{
		Types: map[ast.Expr]types.TypeAndValue{},
		Defs:  map[*ast.Ident]types.Object{},
		Uses:  map[*ast.Ident]types.Object{},
	}
	importPath := c.a.module
	if p.path != "" {
		importPath += "/" + p.path
	}
	p.types, _ = c.conf.Check(importPath, c.a.fset, files, p.info)
}

// parseDirectives extracts //strlint:ignore and //strlint:file-ignore
// comments. Malformed directives are kept with their problem recorded so
// the directive check can report them; a malformed directive never
// suppresses anything.
func parseDirectives(fset *token.FileSet, src *ast.File) []directive {
	var out []directive
	for _, cg := range src.Comments {
		for _, c := range cg.List {
			d, ok := parseIgnoreDirective(c.Text)
			if !ok {
				continue
			}
			d.line = fset.Position(c.Pos()).Line
			out = append(out, d)
		}
	}
	return out
}

// parseIgnoreDirective parses one comment's text as a strlint directive.
// ok is false when the comment is not strlint-addressed at all
// (no "//strlint:" prefix). Any comment that IS strlint-addressed always
// yields a directive; structural problems (unknown verb, missing check
// name or reason, empty entry in the check list) are recorded in
// directive.problem rather than silently dropped, so a typo cannot turn
// into an accidentally-inert suppression. The line field is left for the
// caller to fill in. This function is the fuzzing surface for
// FuzzIgnoreDirective: it must never panic on arbitrary input.
func parseIgnoreDirective(text string) (directive, bool) {
	rest, ok := strings.CutPrefix(text, "//strlint:")
	if !ok {
		return directive{}, false
	}
	verb := rest
	if i := strings.IndexAny(rest, " \t"); i >= 0 {
		verb = rest[:i]
	}
	var d directive
	switch verb {
	case "ignore":
	case "file-ignore":
		d.file = true
	default:
		d.problem = fmt.Sprintf("unknown strlint directive %q (want ignore or file-ignore)", verb)
		return d, true
	}
	body := strings.TrimSpace(rest[len(verb):])
	fields := strings.Fields(body)
	switch len(fields) {
	case 0:
		d.problem = "missing check name and reason: want //strlint:" + verb + " <check>[,<check>] <reason>"
		return d, true
	case 1:
		d.checks = strings.Split(fields[0], ",")
		d.problem = "missing reason: want //strlint:" + verb + " <check>[,<check>] <reason>"
		return d, true
	}
	d.checks = strings.Split(fields[0], ",")
	d.reason = strings.Join(fields[1:], " ")
	for _, c := range d.checks {
		if c == "" {
			d.problem = fmt.Sprintf("empty check name in list %q", fields[0])
			break
		}
	}
	return d, true
}
