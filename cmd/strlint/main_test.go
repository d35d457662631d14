package main

import (
	"bytes"
	"errors"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"
)

// TestExitCodes runs main in a child process (this test binary, told by an
// environment variable to call main instead of testing) from inside each
// fixture module, and pins the two non-zero exits scripts tell apart:
// 1 for findings, 2 for a module that could not be loaded — with the type
// error's position on stderr rather than a lint of half-typed code — and
// 2 for a package argument, since strlint checks the whole module.
func TestExitCodes(t *testing.T) {
	if os.Getenv("STRLINT_TEST_MAIN") == "1" {
		main()
		return
	}
	self, err := os.Executable()
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		fixture string
		args    []string
		exit    int
		stderr  string
	}{
		{"demo", nil, 1, "strlint: 33 finding(s)"},
		{"broken", nil, 2, "\nbroken.go:8:9: invalid operation: a + b (mismatched types int and string)"},
		{"demo", []string{"./..."}, 2, "strlint checks the whole module"},
	} {
		cmd := exec.Command(self, append([]string{"-test.run=^TestExitCodes$", "--"}, tc.args...)...)
		cmd.Dir = filepath.Join("..", "..", "internal", "lint", "testdata", tc.fixture)
		cmd.Env = append(os.Environ(), "STRLINT_TEST_MAIN=1")
		var stderr bytes.Buffer
		cmd.Stderr = &stderr
		err := cmd.Run()
		var exit *exec.ExitError
		if !errors.As(err, &exit) || exit.ExitCode() != tc.exit {
			t.Errorf("%s: strlint exited with %v, want status %d; stderr:\n%s", tc.fixture, err, tc.exit, stderr.String())
		}
		if !strings.Contains(stderr.String(), tc.stderr) {
			t.Errorf("%s: stderr lacks %q:\n%s", tc.fixture, tc.stderr, stderr.String())
		}
	}
}
