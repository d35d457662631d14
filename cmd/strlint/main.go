// Command strlint runs the repository's custom static analyzer (package
// internal/lint) over the module. Nine checks cover float equality,
// dropped errors, library panics, cross-layer imports, map-iteration
// order and time/rand use in the deterministic build layers, guarded-by
// lock discipline, goroutine completion signals, and context
// propagation; a tenth validates the ignore directives themselves. Type
// information comes from go/types: the module is type-checked first, the
// standard library it imports from source.
//
// Usage:
//
//	strlint [-checks c1,c2] [-format text|json|sarif] [-fix] [packages]
//
// Packages are module-relative paths or Go-style patterns: "./...", ".",
// "./internal/geom", "internal/geom". With no arguments, the whole module
// is checked. Exit status is 1 when findings are reported, 2 on usage or
// load errors — a module that does not parse or type-check is a load
// error, printed one file:line:col line per error.
//
// -fix applies every suggested fix and re-runs the analysis; applying
// fixes twice is a no-op. -format sarif emits SARIF 2.1.0 for GitHub
// code-scanning annotations. Findings are suppressed with an in-source
// directive on the same or the preceding line:
//
//	//strlint:ignore <check>[,<check>...] <reason>
//
// or grandfathered in the committed baseline (-baseline, default
// .strlint-baseline.json at the module root); -write-baseline regenerates
// that file from the current findings.
package main

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"

	"strtree/internal/lint"
)

func main() {
	checksFlag := flag.String("checks", "", "comma-separated checks to run (default: all)")
	listFlag := flag.Bool("list", false, "list available checks and exit")
	fixFlag := flag.Bool("fix", false, "apply suggested fixes, then re-run the analysis")
	formatFlag := flag.String("format", "text", "output format: text, json or sarif")
	baselineFlag := flag.String("baseline", ".strlint-baseline.json", "baseline file relative to the module root (missing file = empty baseline)")
	writeBaselineFlag := flag.Bool("write-baseline", false, "write the current findings to the baseline file and exit")
	flag.Usage = func() {
		fmt.Fprintln(os.Stderr, "usage: strlint [-checks c1,c2] [-format text|json|sarif] [-fix] [packages]")
		flag.PrintDefaults()
	}
	flag.Parse()

	if *listFlag {
		for _, c := range lint.Checks() {
			fmt.Printf("%-12s %s\n", c.Name, c.Doc)
		}
		return
	}
	switch *formatFlag {
	case "text", "json", "sarif":
	default:
		fail(fmt.Errorf("unknown format %q (want text, json or sarif)", *formatFlag))
	}

	root, err := findModuleRoot()
	if err != nil {
		fail(err)
	}
	var checks []string
	if *checksFlag != "" {
		checks = strings.Split(*checksFlag, ",")
	}

	findings, err := analyze(root, checks, flag.Args())
	if err != nil {
		fail(err)
	}

	if *fixFlag {
		changed, err := lint.ApplyFixes(findings)
		if err != nil {
			fail(err)
		}
		for _, name := range changed {
			if rel, err := filepath.Rel(root, name); err == nil {
				name = rel
			}
			fmt.Fprintf(os.Stderr, "strlint: fixed %s\n", name)
		}
		// Re-run on the rewritten sources so the report below reflects
		// what is actually left.
		if len(changed) > 0 {
			findings, err = analyze(root, checks, flag.Args())
			if err != nil {
				fail(err)
			}
		}
	}

	if *writeBaselineFlag {
		path := filepath.Join(root, *baselineFlag)
		if err := lint.WriteBaseline(path, findings, root); err != nil {
			fail(err)
		}
		fmt.Fprintf(os.Stderr, "strlint: wrote %d finding(s) to %s\n", len(findings), *baselineFlag)
		return
	}

	entries, err := lint.LoadBaseline(filepath.Join(root, *baselineFlag))
	if err != nil {
		fail(err)
	}
	findings, stale := lint.ApplyBaseline(findings, entries, root)
	for _, msg := range stale {
		fmt.Fprintf(os.Stderr, "strlint: %s\n", msg)
	}

	switch *formatFlag {
	case "json":
		if err := lint.WriteJSON(os.Stdout, findings, root); err != nil {
			fail(err)
		}
	case "sarif":
		if err := lint.WriteSARIF(os.Stdout, findings, root); err != nil {
			fail(err)
		}
	default:
		for _, f := range findings {
			rel := f
			if r, err := filepath.Rel(root, f.Pos.Filename); err == nil {
				rel.Pos.Filename = r
			}
			fmt.Println(rel)
		}
	}
	if len(findings) > 0 {
		fmt.Fprintf(os.Stderr, "strlint: %d finding(s)\n", len(findings))
		os.Exit(1)
	}
}

// analyze loads the module and runs the selected checks over the
// requested packages.
func analyze(root string, checks, patterns []string) ([]lint.Finding, error) {
	a, err := lint.Load(root)
	if err != nil {
		return nil, err
	}
	pkgs, err := resolvePatterns(a, patterns)
	if err != nil {
		return nil, err
	}
	return a.Run(pkgs, checks)
}

func fail(err error) {
	fmt.Fprintf(os.Stderr, "strlint: %v\n", err)
	os.Exit(2)
}

// findModuleRoot walks up from the working directory to the nearest go.mod.
func findModuleRoot() (string, error) {
	dir, err := os.Getwd()
	if err != nil {
		return "", err
	}
	for {
		if _, err := os.Stat(filepath.Join(dir, "go.mod")); err == nil {
			return dir, nil
		}
		parent := filepath.Dir(dir)
		if parent == dir {
			return "", fmt.Errorf("no go.mod found above %s", dir)
		}
		dir = parent
	}
}

// resolvePatterns maps command-line package patterns onto loaded package
// paths. Supported forms: "./...", "all", ".", "dir/...", "./dir", "dir".
func resolvePatterns(a *lint.Analyzer, args []string) ([]string, error) {
	if len(args) == 0 {
		return nil, nil // all packages
	}
	known := a.Packages()
	var out []string
	seen := map[string]bool{}
	add := func(p string) {
		if !seen[p] {
			seen[p] = true
			out = append(out, p)
		}
	}
	for _, arg := range args {
		norm := strings.TrimPrefix(filepath.ToSlash(arg), "./")
		switch {
		case norm == "..." || norm == "all":
			return nil, nil
		case strings.HasSuffix(norm, "/..."):
			prefix := strings.TrimSuffix(norm, "/...")
			matched := false
			for _, p := range known {
				if p == prefix || strings.HasPrefix(p, prefix+"/") {
					add(p)
					matched = true
				}
			}
			if !matched {
				return nil, fmt.Errorf("pattern %q matches no packages", arg)
			}
		default:
			if norm == "." {
				norm = ""
			}
			found := false
			for _, p := range known {
				if p == norm {
					found = true
					break
				}
			}
			if !found {
				return nil, fmt.Errorf("package %q not found in module", arg)
			}
			add(norm)
		}
	}
	return out, nil
}
