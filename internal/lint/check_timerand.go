package lint

import (
	"go/ast"
	"go/types"
)

// clockFuncs are the time-package functions whose value differs between
// runs. Deliberately narrow: time.Duration arithmetic, formatting and
// timers are fine; reading the wall clock is not.
var clockFuncs = map[string]bool{"Now": true, "Since": true, "Until": true}

var timerandCheck = &Check{
	Name: "timerand",
	Doc: "Flags time.Now/Since/Until and any math/rand use inside the " +
		"deterministic build layers (the root package, pack, psort, " +
		"extsort, rtree). Wall-clock readings and random numbers must " +
		"never influence build output — byte-identical indexes at any " +
		"worker count is the module's headline contract. Timing that " +
		"feeds only reporting (BuildStats durations) is grandfathered in " +
		"the committed baseline, where the reason is recorded.",
	run: func(p *pass) {
		if !deterministicLayers[p.pkg.path] {
			return
		}
		p.inspect(func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok {
				return true
			}
			// Package-level functions only: a method (t.Since, or Intn on a
			// seeded *rand.Rand handed in by the caller) reads no global state.
			fn := p.callee(call)
			if fn == nil || fn.Pkg() == nil || fn.Type().(*types.Signature).Recv() != nil {
				return true
			}
			switch fn.Pkg().Path() {
			case "time":
				if clockFuncs[fn.Name()] {
					p.reportf(call.Pos(), "timerand",
						"time.%s in deterministic layer %s; wall-clock values must not influence build output (baseline it if it only feeds stats)",
						fn.Name(), pkgDisplay(p.pkg.path))
				}
			case "math/rand", "math/rand/v2":
				p.reportf(call.Pos(), "timerand",
					"math/rand call %s in deterministic layer %s; randomness must not influence build output",
					calleeName(call), pkgDisplay(p.pkg.path))
			}
			return true
		})
	},
}
