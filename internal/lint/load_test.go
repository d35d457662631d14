package lint

import (
	"maps"
	"path/filepath"
	"runtime"
	"strings"
	"sync"
	"testing"
)

// Loading a module type-checks the standard library it imports from
// source, which takes seconds; every test that only reads an Analyzer
// shares one per fixture per test binary.
var (
	demoModule = sync.OnceValues(func() (*Analyzer, error) { return Load(filepath.Join("testdata", "demo")) })
	realModule = sync.OnceValues(func() (*Analyzer, error) { return Load(filepath.Join("..", "..")) })
)

// DemoModule returns the loaded testdata/demo fixture module.
func DemoModule(t testing.TB) *Analyzer {
	t.Helper()
	a, err := demoModule()
	if err != nil {
		t.Fatal(err)
	}
	return a
}

// RealModule returns the loaded repository.
func RealModule(t testing.TB) *Analyzer {
	t.Helper()
	a, err := realModule()
	if err != nil {
		t.Fatal(err)
	}
	return a
}

// TestBuildConstraints pins the file filter: internal/storage declares
// syncCost in sync_linux.go and again in sync_other.go, so the module
// loads only if exactly the file this platform builds is in the package,
// and only that file's floateq finding is reported.
func TestBuildConstraints(t *testing.T) {
	a := DemoModule(t)
	in, out := "sync_other.go", "sync_linux.go"
	if runtime.GOOS == "linux" {
		in, out = out, in
	}
	var loaded []string
	for _, f := range a.pkgs["internal/storage"].files {
		if base := filepath.Base(f.name); strings.HasPrefix(base, "sync_") {
			loaded = append(loaded, base)
		}
	}
	if len(loaded) != 1 || loaded[0] != in {
		t.Fatalf("platform files loaded = %v, want [%s]", loaded, in)
	}
	findings, err := a.Run([]string{"internal/storage"}, []string{"floateq"})
	if err != nil {
		t.Fatal(err)
	}
	if len(findings) != 1 || filepath.Base(findings[0].Pos.Filename) != in {
		t.Errorf("floateq findings = %v, want exactly the one in %s (none from the excluded %s)", findings, in, out)
	}
}

// TestLoadReportsTypeErrors pins that a module which does not type-check
// fails to load, naming the error's position, instead of being linted on
// partial type information.
func TestLoadReportsTypeErrors(t *testing.T) {
	_, err := Load(filepath.Join("testdata", "broken"))
	if err == nil {
		t.Fatal("module with a type error loaded")
	}
	for _, want := range []string{"\nbroken.go:8:9: ", "mismatched types int and string"} {
		if !strings.Contains(err.Error(), want) {
			t.Errorf("load error lacks %q:\n%v", want, err)
		}
	}
}

// TestLayerTableIsMinimal holds the layering table to the module: every
// listed package exists, and the imports it is allowed are exactly the
// module-internal imports its non-test files make — an edge nothing uses
// is permission nobody reviewed.
func TestLayerTableIsMinimal(t *testing.T) {
	a := RealModule(t)
	for path, allowed := range layerAllowed {
		p := a.pkgs[path]
		if p == nil {
			t.Errorf("layering table lists %s, which the module does not contain", pkgDisplay(path))
			continue
		}
		used := map[string]bool{}
		for _, imp := range p.types.Imports() {
			if rel, local := a.relImport(imp.Path()); local {
				used[rel] = true
			}
		}
		if !maps.Equal(used, allowed) {
			t.Errorf("%s imports %s but the table allows %s", pkgDisplay(path), allowedList(used), allowedList(allowed))
		}
	}
}
