package lint_test

import (
	"path/filepath"
	"strings"
	"testing"

	"strtree/internal/lint"
)

func runAll(t *testing.T, a *lint.Analyzer) []lint.Finding {
	t.Helper()
	findings, err := a.Run(nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	return findings
}

// byCheck buckets findings per check name.
func byCheck(findings []lint.Finding) map[string][]lint.Finding {
	out := map[string][]lint.Finding{}
	for _, f := range findings {
		out[f.Check] = append(out[f.Check], f)
	}
	return out
}

func TestLoadDemoModule(t *testing.T) {
	a := lint.DemoModule(t)
	if a.Module() != "demo" {
		t.Fatalf("module = %q", a.Module())
	}
	want := []string{"", "internal/buffer", "internal/geom", "internal/pack", "internal/query", "internal/router", "internal/rtree", "internal/server", "internal/storage", "internal/widget"}
	got := a.Packages()
	if len(got) != len(want) {
		t.Fatalf("packages = %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("packages = %v, want %v", got, want)
		}
	}
}

// TestEveryCheckFires proves every registered check is live, with the
// exact finding count each fixture was written for.
func TestEveryCheckFires(t *testing.T) {
	found := byCheck(runAll(t, lint.DemoModule(t)))
	wantCounts := map[string]int{
		"floateq":    5, // two live in demo.go + promoted field of a map element + one under the malformed directive + the platform file
		"droppederr": 8, // plain call, defer, encoding/binary, go call, goroutine body, intra-package call, dropped write-pin release, embedded-interface method
		"panics":     1, // widget.Explode only; Must*/init exempt
		"imports":    3, // geom->storage violation + router->rtree violation + widget missing from table
		"directive":  4, // missing reason, unknown check, unknown verb, empty list entry
		"maporder":   2, // unsorted key collection + in-range write (sorted collection exempt)
		"timerand":   3, // time.Now, time.Since, rand.Intn in a build layer (Intn on a caller-seeded *rand.Rand exempt)
		"guardedby":  2, // unguarded access, annotation naming a non-field
		"waitpair":   2, // named-function goroutine + signal-free literal
		"ctxprop":    3, // ignored Context method + function variants, context.Background (a sibling in another package exempt)
	}
	for _, check := range lint.AllChecks() {
		if _, ok := wantCounts[check]; !ok {
			t.Errorf("registered check %q has no fixture count", check)
		}
	}
	for check, want := range wantCounts {
		if got := len(found[check]); got != want {
			var lines []string
			for _, f := range found[check] {
				lines = append(lines, f.String())
			}
			t.Errorf("%s: %d findings, want %d:\n%s", check, got, want, strings.Join(lines, "\n"))
		}
	}
	for check := range found {
		if _, ok := wantCounts[check]; !ok {
			t.Errorf("unexpected findings for check %q: %v", check, found[check])
		}
	}
}

func TestFindingDetails(t *testing.T) {
	findings := runAll(t, lint.DemoModule(t))
	wantSubstrings := []string{
		"panic in library function Explode",
		"internal/geom must not import internal/storage",
		"internal/router must not import internal/rtree",
		"package internal/widget missing from the strlint layering table",
		"error from internal/storage defer call p.Close is discarded",
		"error from encoding/binary call binary.Write is discarded",
		"error from internal/query go call ex.Run is discarded",
		"error from internal/server call Shutdown is discarded",
		// The two cases below need exact types: a method reached through
		// an embedded interface, a promoted field of a map element.
		"demo.go:110:2: droppederr: error from internal/storage call d.Flush is discarded",
		"demo.go:124:21: floateq: == on float operands",
		"malformed directive",
		`unknown check "floatqe"`,
		`unknown strlint directive "ignored"`,
		`empty check name in list "floateq,,panics"`,
		"map iteration order reaches ordered output",
		"time.Now in deterministic layer",
		"math/rand call rand.Intn in deterministic layer",
		"s.pages is guarded by mu but accessed in Get without it held",
		`guarded-by annotation names "lock", which is not a field of Store`,
		"goroutine in FireAndForget has no completion signal",
		"call to Scan ignores the incoming context; use ScanContext(ctx, ...)",
		"context.Background in library package internal/server severs",
	}
	all := make([]string, len(findings))
	for i, f := range findings {
		all[i] = f.String()
	}
	joined := strings.Join(all, "\n")
	for _, want := range wantSubstrings {
		if !strings.Contains(joined, want) {
			t.Errorf("no finding contains %q; findings:\n%s", want, joined)
		}
	}
}

// TestSuppression pins the directive semantics: a well-formed ignore on
// the preceding line and a file-ignore both silence findings, while a
// malformed one silences nothing.
func TestSuppression(t *testing.T) {
	findings := runAll(t, lint.DemoModule(t))
	for _, f := range findings {
		base := filepath.Base(f.Pos.Filename)
		if base == "fileignore.go" {
			t.Errorf("file-ignore failed to suppress: %s", f)
		}
		if base == "demo.go" && f.Check == "floateq" {
			// Only the two undirected comparisons may fire; the suppressed
			// one sits two lines under its directive comment.
			msg := f.String()
			if strings.Contains(msg, "Intended") {
				t.Errorf("line directive failed to suppress: %s", msg)
			}
		}
	}
}

// TestCheckSelection proves the -checks filter restricts the run.
func TestCheckSelection(t *testing.T) {
	a := lint.DemoModule(t)
	findings, err := a.Run(nil, []string{"panics"})
	if err != nil {
		t.Fatal(err)
	}
	for _, f := range findings {
		if f.Check != "panics" {
			t.Errorf("selected panics only, got %s", f)
		}
	}
	if len(findings) != 1 {
		t.Errorf("panics findings = %d, want 1", len(findings))
	}
	if _, err := a.Run(nil, []string{"nosuch"}); err == nil {
		t.Error("unknown check name accepted")
	}
}

// TestPackageSelection proves the package filter restricts the run.
func TestPackageSelection(t *testing.T) {
	a := lint.DemoModule(t)
	findings, err := a.Run([]string{"internal/widget"}, nil)
	if err != nil {
		t.Fatal(err)
	}
	for _, f := range findings {
		if !strings.Contains(filepath.ToSlash(f.Pos.Filename), "internal/widget/") {
			t.Errorf("finding outside selected package: %s", f)
		}
	}
	if len(findings) != 2 { // panics + missing-from-table
		t.Errorf("widget findings = %d, want 2", len(findings))
	}
	if _, err := a.Run([]string{"internal/nosuch"}, nil); err == nil {
		t.Error("unknown package accepted")
	}
}

// TestRealModuleIsClean is the repository's own gate: strlint over the
// actual source tree, minus the committed baseline, must be silent. Any
// new finding either needs a fix, a reasoned //strlint:ignore, or a
// reviewed baseline entry — and every baseline entry must still match a
// real finding, so the debt list cannot rot.
func TestRealModuleIsClean(t *testing.T) {
	root, err := filepath.Abs(filepath.Join("..", ".."))
	if err != nil {
		t.Fatal(err)
	}
	findings := runAll(t, lint.RealModule(t))
	entries, err := lint.LoadBaseline(filepath.Join(root, ".strlint-baseline.json"))
	if err != nil {
		t.Fatal(err)
	}
	kept, stale := lint.ApplyBaseline(findings, entries, root)
	for _, f := range kept {
		t.Errorf("%s", f)
	}
	for _, msg := range stale {
		t.Errorf("stale baseline entry: %s", msg)
	}
}
