package strtree_test

// The documents are held to what they cite: a citation of a DESIGN.md or
// EXPERIMENTS.md section names a heading that exists, a path the README or
// DESIGN.md §1–§16 names exists, and CHANGES.md is one short entry per PR.

import (
	"fmt"
	"io/fs"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
)

// maxChangesEntry is the byte cap on one CHANGES.md entry.
const maxChangesEntry = 1536

var (
	headingRE = regexp.MustCompile(`(?m)^#+ (.+)$`)
	// lineBreakRE joins a sentence wrapped across lines, comment leaders
	// included, so a citation split over two lines is still found.
	lineBreakRE = regexp.MustCompile(`[ \t]*\n[ \t]*(?://+|#+)?[ \t]*`)

	designSectionRE = regexp.MustCompile(`DESIGN\.md,? (?:§|(?i:section) )(\d+)`)
	designTitleRE   = regexp.MustCompile(`DESIGN\.md, "([^"]+)"`)
	expPRRE         = regexp.MustCompile(`EXPERIMENTS\.md(?:, | §)PR (\d+)`)
	expTitleRE      = regexp.MustCompile(`EXPERIMENTS\.md, "([^"]+)"`)

	backtickRE = regexp.MustCompile("`([^`\n]+)`")
	pathRE     = regexp.MustCompile(`^(?:internal|cmd|scripts|examples|\.github)/[^\s:'` + "`" + `]*`)
	braceRE    = regexp.MustCompile(`\{([^{}]*)\}`)
	// selectorRE splits a package path from an identifier it qualifies,
	// as in internal/node.View.
	selectorRE  = regexp.MustCompile(`^(.*/[^/.]+)\.[A-Z]\w*$`)
	changesPRRE = regexp.MustCompile(`^PR \d+: `)
)

// readDoc returns a repository file's text.
func readDoc(t *testing.T, name string) string {
	t.Helper()
	b, err := os.ReadFile(name)
	if err != nil {
		t.Fatal(err)
	}
	return string(b)
}

// headings returns the heading texts of a markdown file, with any leading
// section number ("17. ") stripped, and the set of its numbered sections.
func headings(t *testing.T, name string) (titles []string, numbered map[string]bool) {
	numbered = map[string]bool{}
	for _, m := range headingRE.FindAllStringSubmatch(readDoc(t, name), -1) {
		title := m[1]
		if num, rest, ok := strings.Cut(title, ". "); ok && strings.Trim(num, "0123456789") == "" {
			numbered[num] = true
			title = rest
		}
		titles = append(titles, title)
	}
	return titles, numbered
}

// hasTitle reports whether some heading starts with title.
func hasTitle(titles []string, title string) bool {
	for _, h := range titles {
		if strings.HasPrefix(h, title) {
			return true
		}
	}
	return false
}

// citingFiles returns the files whose citations are checked: every .go,
// .sh and .yml file outside bench/ (the frozen benchmark) and outside
// hidden directories other than .github, plus the three documents.
func citingFiles(t *testing.T) []string {
	files := []string{"README.md", "DESIGN.md", "EXPERIMENTS.md"}
	err := filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if path == "bench" || (path != "." && path != ".github" && strings.HasPrefix(d.Name(), ".")) {
				return filepath.SkipDir
			}
			return nil
		}
		switch filepath.Ext(path) {
		case ".go", ".sh", ".yml":
			files = append(files, path)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	return files
}

// eachCitation calls fn with every match of re in the citing files.
func eachCitation(t *testing.T, re *regexp.Regexp, fn func(file, cited string)) {
	for _, f := range citingFiles(t) {
		text := lineBreakRE.ReplaceAllString(readDoc(t, f), " ")
		for _, m := range re.FindAllStringSubmatch(text, -1) {
			fn(f, m[1])
		}
	}
}

func TestDocsDesignCitationsResolve(t *testing.T) {
	titles, numbered := headings(t, "DESIGN.md")
	eachCitation(t, designSectionRE, func(file, n string) {
		if !numbered[n] {
			t.Errorf("%s cites DESIGN.md §%s: no such section", file, n)
		}
	})
	eachCitation(t, designTitleRE, func(file, title string) {
		if !hasTitle(titles, title) {
			t.Errorf("%s cites DESIGN.md, %q: no such heading", file, title)
		}
	})
}

func TestDocsExperimentsCitationsResolve(t *testing.T) {
	titles, _ := headings(t, "EXPERIMENTS.md")
	eachCitation(t, expPRRE, func(file, n string) {
		if !hasTitle(titles, "PR "+n+" ") {
			t.Errorf("%s cites EXPERIMENTS.md §PR %s: no such heading", file, n)
		}
	})
	eachCitation(t, expTitleRE, func(file, title string) {
		if !hasTitle(titles, title) {
			t.Errorf("%s cites EXPERIMENTS.md, %q: no such heading", file, title)
		}
	})
}

// expandBraces expands each {a,b} group of a path into its alternatives.
func expandBraces(p string) []string {
	loc := braceRE.FindStringSubmatchIndex(p)
	if loc == nil {
		return []string{p}
	}
	var out []string
	for _, alt := range strings.Split(p[loc[2]:loc[3]], ",") {
		out = append(out, expandBraces(p[:loc[0]]+alt+p[loc[1]:])...)
	}
	return out
}

func TestDocsPathsExist(t *testing.T) {
	design := readDoc(t, "DESIGN.md")
	start := strings.Index(design, "\n## 1. ")
	end := strings.Index(design, "\n## 17. ")
	if start < 0 || end < start {
		t.Fatal("DESIGN.md: no §1 … §17 headings")
	}
	docs := map[string]string{"README.md": readDoc(t, "README.md"), "DESIGN.md §1–§16": design[start:end]}
	for name, text := range docs {
		for _, m := range backtickRE.FindAllStringSubmatch(text, -1) {
			p := pathRE.FindString(m[1])
			if p == "" {
				continue
			}
			for _, q := range expandBraces(strings.TrimSuffix(p, ".")) {
				if m := selectorRE.FindStringSubmatch(q); m != nil {
					q = m[1]
				}
				if _, err := os.Stat(q); err != nil {
					t.Errorf("%s names `%s`: %v", name, q, err)
				}
			}
		}
	}
}

func TestDocsChangesEntries(t *testing.T) {
	text := strings.TrimSuffix(readDoc(t, "CHANGES.md"), "\n")
	for i, line := range strings.Split(text, "\n") {
		where := fmt.Sprintf("CHANGES.md:%d", i+1)
		if !changesPRRE.MatchString(line) {
			t.Errorf("%s does not start with \"PR N: \": %.60q", where, line)
		}
		if len(line) > maxChangesEntry {
			t.Errorf("%s is %d bytes, over the %d-byte cap: %.60q", where, len(line), maxChangesEntry, line)
		}
	}
}
