package strtree_test

// The gates run tests and benchmarks by name, and go test exits 0 when a
// -run, -bench or -fuzz pattern matches nothing: a renamed benchmark that
// check.sh or CI names would stop running without a word. This test reads
// every go test command in check.sh and the two workflows and holds each
// pattern to the functions of the packages the command targets.

import (
	"os"
	"path/filepath"
	"regexp"
	"slices"
	"strconv"
	"strings"
	"testing"
)

// gateFiles are the scripts whose go test commands are held to their names.
var gateFiles = []string{"check.sh", ".github/workflows/ci.yml", ".github/workflows/nightly.yml"}

var (
	testFuncRE = regexp.MustCompile(`(?m)^func (\w+)\(`)
	identRE    = regexp.MustCompile(`^\w+$`)
	// matrixRE reads nightly's fuzz matrix: a "- target:" line, then "pkg:".
	matrixRE = regexp.MustCompile(`(?m)^\s*- target: (\w+)\s*\n\s*pkg: (\S+)`)
)

// goTestCommand is one go test invocation found in a gate file.
type goTestCommand struct {
	where    string            // file:line
	patterns map[string]string // flag (run, bench, fuzz) -> pattern
	pkgs     []string          // package arguments
}

// goTestCommands returns the go test commands of a shell script or a
// workflow: lines that start with go test, after an optional "run: " and
// with backslash continuations joined. Comments and echo lines never start
// with it. A command naming ${{ matrix.target }} expands once per row of
// the file's target/pkg matrix.
func goTestCommands(t *testing.T, name string) []goTestCommand {
	t.Helper()
	text := readDoc(t, name)
	matrix := matrixRE.FindAllStringSubmatch(text, -1)
	lines := strings.Split(text, "\n")
	var cmds []goTestCommand
	for i := 0; i < len(lines); i++ {
		where := name + ":" + strconv.Itoa(i+1)
		line := lines[i]
		for strings.HasSuffix(line, "\\") && i+1 < len(lines) {
			i++
			line = strings.TrimSuffix(line, "\\") + " " + lines[i]
		}
		line = strings.TrimPrefix(strings.TrimSpace(line), "run: ")
		if !strings.HasPrefix(line, "go test ") {
			continue
		}
		if !strings.Contains(line, "${{ matrix.target }}") {
			cmds = append(cmds, parseGoTest(t, where, line))
			continue
		}
		if len(matrix) == 0 {
			t.Fatalf("%s names a matrix target, but the file has no target/pkg matrix", where)
		}
		for _, row := range matrix {
			l := strings.ReplaceAll(line, "${{ matrix.target }}", row[1])
			cmds = append(cmds, parseGoTest(t, where, strings.ReplaceAll(l, "${{ matrix.pkg }}", row[2])))
		}
	}
	return cmds
}

// parseGoTest splits the arguments of one go test command: single quotes
// group, an unquoted |, ; or & ends the command, a flag in valueless takes
// no value, every other flag takes the next word, and what is left names
// packages.
func parseGoTest(t *testing.T, where, line string) goTestCommand {
	t.Helper()
	var words []string
	for i, part := range strings.Split(strings.TrimPrefix(line, "go test "), "'") {
		if i%2 == 1 {
			words = append(words, part)
			continue
		}
		part, _, end := strings.Cut(part, "|")
		if j := strings.IndexAny(part, ";&"); j >= 0 {
			part, end = part[:j], true
		}
		words = append(words, strings.Fields(part)...)
		if end {
			break
		}
	}
	valueless := map[string]bool{"-race": true, "-v": true, "-benchmem": true, "-short": true, "-update": true}
	cmd := goTestCommand{where: where, patterns: map[string]string{}}
	for i := 0; i < len(words); i++ {
		w := words[i]
		switch {
		case !strings.HasPrefix(w, "-"):
			cmd.pkgs = append(cmd.pkgs, w)
		case valueless[w]:
		case i+1 == len(words):
			t.Fatalf("%s: flag %s has no value", where, w)
		default:
			i++
			if f := strings.TrimPrefix(w, "-"); f == "run" || f == "bench" || f == "fuzz" {
				cmd.patterns[f] = words[i]
			}
		}
	}
	if len(cmd.pkgs) == 0 {
		t.Fatalf("%s: no package argument", where)
	}
	return cmd
}

// testFuncs returns the names of the functions declared in the _test.go
// files of the directories a package pattern covers.
func testFuncs(t *testing.T, pkg string) []string {
	t.Helper()
	dir, all := strings.CutSuffix(filepath.Clean(pkg), string(filepath.Separator)+"...")
	if dir == "..." {
		dir, all = ".", true
	}
	var names []string
	err := filepath.WalkDir(dir, func(path string, d os.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if path != dir && (!all || d.Name() == "testdata" || d.Name() == "bench" || strings.HasPrefix(d.Name(), ".")) {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(path, "_test.go") {
			return nil
		}
		b, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		for _, m := range testFuncRE.FindAllStringSubmatch(string(b), -1) {
			names = append(names, m[1])
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	return names
}

// kinds are the function prefixes each pattern flag selects from.
var kinds = map[string][]string{
	"run":   {"Test", "Fuzz", "Example"},
	"bench": {"Benchmark"},
	"fuzz":  {"Fuzz"},
}

// checkPattern holds one pattern to the functions it may select. An
// anchored alternation (^A$, ^(A|B)$) names functions exactly, and each
// must be declared; in an unanchored one each alternative must match at
// least one function. ^$ selects nothing on purpose.
func checkPattern(t *testing.T, cmd goTestCommand, flag, pattern string, funcs []string) {
	t.Helper()
	var candidates []string
	for _, f := range funcs {
		for _, k := range kinds[flag] {
			if strings.HasPrefix(f, k) {
				candidates = append(candidates, f)
			}
		}
	}
	body, anchored := strings.CutPrefix(pattern, "^")
	if anchored {
		body, anchored = strings.CutSuffix(body, "$")
	}
	if anchored && body == "" {
		return
	}
	if anchored && strings.HasPrefix(body, "(") && strings.HasSuffix(body, ")") {
		body = body[1 : len(body)-1]
	}
	for _, alt := range strings.Split(body, "|") {
		if anchored && identRE.MatchString(alt) {
			if !slices.Contains(candidates, alt) {
				t.Errorf("%s: -%s %q: no func %s( in a _test.go file of %v", cmd.where, flag, pattern, alt, cmd.pkgs)
			}
			continue
		}
		if anchored {
			alt = "^" + alt + "$"
		}
		re, err := regexp.Compile(alt)
		if err != nil {
			t.Errorf("%s: -%s %q: %v", cmd.where, flag, pattern, err)
			continue
		}
		matched := false
		for _, f := range candidates {
			matched = matched || re.MatchString(f)
		}
		if !matched {
			t.Errorf("%s: -%s %q: %q matches no function of %v", cmd.where, flag, pattern, alt, cmd.pkgs)
		}
	}
}

// TestGateNamesExist holds every -run, -bench and -fuzz pattern the gates
// run to functions that exist in the packages they target.
func TestGateNamesExist(t *testing.T) {
	for _, name := range gateFiles {
		named := 0
		for _, cmd := range goTestCommands(t, name) {
			var funcs []string
			for _, pkg := range cmd.pkgs {
				funcs = append(funcs, testFuncs(t, pkg)...)
			}
			for flag, pattern := range cmd.patterns {
				checkPattern(t, cmd, flag, pattern, funcs)
				named++
			}
		}
		// A parser that stopped seeing commands would pass vacuously.
		if named == 0 {
			t.Errorf("%s: no go test command with a -run, -bench or -fuzz pattern found", name)
		}
	}
}
