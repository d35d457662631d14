package lint

// The analyzer registry. Every check is a self-contained analyzer: a
// name, a one-paragraph doc string (surfaced by `strlint -list` and as
// the rule description in SARIF output), and a run function invoked once
// per package against its AST and go/types information.
// Checks report through the pass and may attach suggested fixes, which
// `strlint -fix` applies as text edits.

// Check is one registered analyzer.
type Check struct {
	// Name is the check's identifier, used in -checks selection,
	// //strlint:ignore directives and SARIF rule ids.
	Name string
	// Doc explains what the check flags and why, in one paragraph.
	Doc string
	// run reports this check's findings for one package.
	run func(p *pass)
}

// registry lists every analyzer in reporting order. New checks are added
// here and nowhere else: the driver, the directive validator and the
// SARIF rule table all derive from this slice. Populated in init so that
// checks whose messages enumerate the registry (directive) don't form an
// initialization cycle.
var registry []*Check

func init() {
	registry = []*Check{
		floateqCheck,
		droppederrCheck,
		panicsCheck,
		importsCheck,
		maporderCheck,
		timerandCheck,
		guardedbyCheck,
		waitpairCheck,
		ctxpropCheck,
		directiveCheck,
	}
}

// Checks returns the registered analyzers in reporting order.
func Checks() []*Check { return registry }

// AllChecks lists every check name, in reporting order.
func AllChecks() []string {
	names := make([]string, len(registry))
	for i, c := range registry {
		names[i] = c.Name
	}
	return names
}

func knownCheck(name string) bool {
	for _, c := range registry {
		if c.Name == name {
			return true
		}
	}
	return false
}

func checkByName(name string) *Check {
	for _, c := range registry {
		if c.Name == name {
			return c
		}
	}
	return nil
}
