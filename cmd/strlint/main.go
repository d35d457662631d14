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
//	strlint [-format text|sarif]
//
// strlint checks the module that holds the working directory, every
// package of it with every check, and rewrites nothing; it takes no
// arguments. Exit status is 1 when findings are reported, 2 on usage or
// load errors — a module that does not parse or type-check is a load
// error, printed one file:line:col line per error.
//
// -format sarif emits SARIF 2.1.0 for GitHub code-scanning annotations.
// A finding is suppressed only by an in-source directive on the same or
// the preceding line:
//
//	//strlint:ignore <check>[,<check>...] <reason>
package main

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"

	"strtree/internal/lint"
)

func main() {
	formatFlag := flag.String("format", "text", "output format: text or sarif")
	flag.Usage = func() {
		fmt.Fprintln(os.Stderr, "usage: strlint [-format text|sarif]")
		flag.PrintDefaults()
	}
	flag.Parse()
	if flag.NArg() > 0 {
		fail(fmt.Errorf("unexpected arguments %q: strlint checks the whole module", flag.Args()))
	}
	switch *formatFlag {
	case "text", "sarif":
	default:
		fail(fmt.Errorf("unknown format %q (want text or sarif)", *formatFlag))
	}

	root, err := findModuleRoot()
	if err != nil {
		fail(err)
	}
	a, err := lint.Load(root)
	if err != nil {
		fail(err)
	}
	findings := a.Run()

	if *formatFlag == "sarif" {
		if err := lint.WriteSARIF(os.Stdout, findings, root); err != nil {
			fail(err)
		}
	} else {
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
