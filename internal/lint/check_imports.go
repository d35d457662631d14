package lint

import (
	"slices"
	"strings"
)

var importsCheck = &Check{
	Name: "imports",
	Doc: "Enforces the bottom-up layering table in rules.go: each library " +
		"package may import only its listed module-internal dependencies. " +
		"A library package missing from the table is itself a finding, so " +
		"the table cannot silently rot.",
	run: func(p *pass) {
		allowed, ok := layerAllowed[p.pkg.path]
		for _, f := range p.pkg.files {
			if !ok {
				if libraryPackage(p.pkg.path) {
					p.reportf(f.ast.Name.Pos(), "imports",
						"package %s missing from the strlint layering table (internal/lint/rules.go); add it with its allowed imports", pkgDisplay(p.pkg.path))
				}
				continue
			}
			for _, imp := range f.ast.Imports {
				path := strings.Trim(imp.Path.Value, `"`)
				if rel, inModule := p.a.relImport(path); inModule && !allowed[rel] {
					p.reportf(imp.Pos(), "imports",
						"layering violation: %s must not import %s (allowed: %s)",
						pkgDisplay(p.pkg.path), pkgDisplay(rel), allowedList(allowed))
				}
			}
		}
	},
}

func allowedList(allowed map[string]bool) string {
	if len(allowed) == 0 {
		return "none"
	}
	var names []string
	for p := range allowed {
		names = append(names, pkgDisplay(p))
	}
	slices.Sort(names)
	return strings.Join(names, ", ")
}
