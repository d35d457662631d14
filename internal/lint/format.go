package lint

import (
	"encoding/json"
	"io"
	"path/filepath"
)

// This file renders findings as SARIF 2.1.0 for GitHub code scanning (PR
// annotations via codeql-action/upload-sarif). File paths are rendered
// module-relative with forward slashes, so output is stable across
// checkouts.

// SARIF 2.1.0 subset: exactly what GitHub code scanning consumes.

type sarifLog struct {
	Schema  string     `json:"$schema"`
	Version string     `json:"version"`
	Runs    []sarifRun `json:"runs"`
}

type sarifRun struct {
	Tool    sarifTool     `json:"tool"`
	Results []sarifResult `json:"results"`
}

type sarifTool struct {
	Driver sarifDriver `json:"driver"`
}

type sarifDriver struct {
	Name  string      `json:"name"`
	Rules []sarifRule `json:"rules"`
}

type sarifRule struct {
	ID               string       `json:"id"`
	ShortDescription sarifMessage `json:"shortDescription"`
	FullDescription  sarifMessage `json:"fullDescription"`
}

type sarifResult struct {
	RuleID    string          `json:"ruleId"`
	Level     string          `json:"level"`
	Message   sarifMessage    `json:"message"`
	Locations []sarifLocation `json:"locations"`
}

type sarifMessage struct {
	Text string `json:"text"`
}

type sarifLocation struct {
	PhysicalLocation sarifPhysical `json:"physicalLocation"`
}

type sarifPhysical struct {
	ArtifactLocation sarifArtifact `json:"artifactLocation"`
	Region           sarifRegion   `json:"region"`
}

type sarifArtifact struct {
	URI string `json:"uri"`
}

type sarifRegion struct {
	StartLine   int `json:"startLine"`
	StartColumn int `json:"startColumn"`
}

// WriteSARIF renders the findings as a SARIF 2.1.0 log. Every registered
// check appears in the rule table (so code scanning can show rule help
// even for clean runs); findings map to error-level results because any
// finding fails the lint gate.
func WriteSARIF(w io.Writer, findings []Finding, root string) error {
	driver := sarifDriver{Name: "strlint"}
	for _, c := range Checks() {
		driver.Rules = append(driver.Rules, sarifRule{
			ID:               c.Name,
			ShortDescription: sarifMessage{Text: c.Name},
			FullDescription:  sarifMessage{Text: c.Doc},
		})
	}
	results := make([]sarifResult, 0, len(findings))
	for _, f := range findings {
		results = append(results, sarifResult{
			RuleID:  f.Check,
			Level:   "error",
			Message: sarifMessage{Text: f.Message},
			Locations: []sarifLocation{{PhysicalLocation: sarifPhysical{
				ArtifactLocation: sarifArtifact{URI: relSlash(root, f.Pos.Filename)},
				Region:           sarifRegion{StartLine: f.Pos.Line, StartColumn: f.Pos.Column},
			}}},
		})
	}
	log := sarifLog{
		Schema:  "https://raw.githubusercontent.com/oasis-tcs/sarif-spec/master/Schemata/sarif-schema-2.1.0.json",
		Version: "2.1.0",
		Runs:    []sarifRun{{Tool: sarifTool{Driver: driver}, Results: results}},
	}
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(log)
}

// relSlash renders path relative to root with forward slashes; paths
// outside root pass through unchanged.
func relSlash(root, path string) string {
	if root == "" {
		return filepath.ToSlash(path)
	}
	if rel, err := filepath.Rel(root, path); err == nil && rel != "" && rel[0] != '.' {
		return filepath.ToSlash(rel)
	}
	return filepath.ToSlash(path)
}
