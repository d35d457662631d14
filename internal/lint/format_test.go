package lint_test

import (
	"bytes"
	"encoding/json"
	"flag"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"testing"

	"strtree/internal/lint"
)

var updateGolden = flag.Bool("update", false, "rewrite golden files from current output")

// golden runs the demo module and formats its findings with fn, comparing
// the result byte-for-byte against testdata/golden/<name>. Paths inside
// the output are module-relative, and the platform fixture pair
// (internal/storage/sync_{linux,other}.go, pinned by TestBuildConstraints)
// is left out, so the golden bytes are stable across machines and
// platforms.
func golden(t *testing.T, name string, fn func(w *bytes.Buffer, findings []lint.Finding, root string) error) {
	t.Helper()
	root, err := filepath.Abs(filepath.Join("testdata", "demo"))
	if err != nil {
		t.Fatal(err)
	}
	findings, err := lint.DemoModule(t).Run(nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	findings = slices.DeleteFunc(findings, func(f lint.Finding) bool {
		return strings.HasPrefix(filepath.Base(f.Pos.Filename), "sync_")
	})
	var buf bytes.Buffer
	if err := fn(&buf, findings, root); err != nil {
		t.Fatal(err)
	}
	path := filepath.Join("testdata", "golden", name)
	if *updateGolden {
		if err := os.WriteFile(path, buf.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("%v (run with -update to regenerate)", err)
	}
	if !bytes.Equal(buf.Bytes(), want) {
		t.Errorf("%s drifted from golden file; run go test ./internal/lint -run TestFormat -update\ngot:\n%s", name, buf.String())
	}
}

func TestFormatJSONGolden(t *testing.T) {
	golden(t, "findings.json", func(w *bytes.Buffer, findings []lint.Finding, root string) error {
		return lint.WriteJSON(w, findings, root)
	})
}

func TestFormatSARIFGolden(t *testing.T) {
	golden(t, "findings.sarif", func(w *bytes.Buffer, findings []lint.Finding, root string) error {
		return lint.WriteSARIF(w, findings, root)
	})
}

// TestFormatJSONEmpty pins the no-findings encodings: JSON must be an
// empty array (never null, which breaks jq pipelines), and SARIF must
// still carry the full rules table so CI uploads validate.
func TestFormatJSONEmpty(t *testing.T) {
	var buf bytes.Buffer
	if err := lint.WriteJSON(&buf, nil, "/x"); err != nil {
		t.Fatal(err)
	}
	var arr []json.RawMessage
	if err := json.Unmarshal(buf.Bytes(), &arr); err != nil {
		t.Fatalf("output is not a JSON array: %v\n%s", err, buf.String())
	}
	if arr == nil {
		t.Fatalf("empty findings encoded as null, want []: %s", buf.String())
	}
}

func TestFormatSARIFEmpty(t *testing.T) {
	var buf bytes.Buffer
	if err := lint.WriteSARIF(&buf, nil, "/x"); err != nil {
		t.Fatal(err)
	}
	var doc struct {
		Version string `json:"version"`
		Runs    []struct {
			Tool struct {
				Driver struct {
					Name  string            `json:"name"`
					Rules []json.RawMessage `json:"rules"`
				} `json:"driver"`
			} `json:"tool"`
			Results []json.RawMessage `json:"results"`
		} `json:"runs"`
	}
	if err := json.Unmarshal(buf.Bytes(), &doc); err != nil {
		t.Fatal(err)
	}
	if doc.Version != "2.1.0" || len(doc.Runs) != 1 {
		t.Fatalf("version %q runs %d", doc.Version, len(doc.Runs))
	}
	run := doc.Runs[0]
	if run.Tool.Driver.Name != "strlint" {
		t.Errorf("driver name = %q", run.Tool.Driver.Name)
	}
	if got, want := len(run.Tool.Driver.Rules), len(lint.AllChecks()); got != want {
		t.Errorf("rules = %d, want %d (one per registered check)", got, want)
	}
	if run.Results == nil {
		t.Errorf("results encoded as null, want []")
	}
}
