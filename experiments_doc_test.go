package repro_test

import (
	"os"
	"regexp"
	"strings"
	"testing"
)

// TestExperimentsCitesOnlyCommittedFiles requires every repo-relative file
// EXPERIMENTS.md cites in backticks — anything under results/ and any .txt,
// .csv or .json file — to exist, so no reported number points at an artifact
// that is not in the tree.
func TestExperimentsCitesOnlyCommittedFiles(t *testing.T) {
	doc, err := os.ReadFile("EXPERIMENTS.md")
	if err != nil {
		t.Fatal(err)
	}
	cited := regexp.MustCompile("`([^`\\s]+)`").FindAllStringSubmatch(string(doc), -1)
	dataFile := regexp.MustCompile(`\.(txt|csv|json)$`)
	n := 0
	for _, m := range cited {
		path := m[1]
		if !strings.HasPrefix(path, "results/") && !dataFile.MatchString(path) {
			continue
		}
		n++
		if _, err := os.Stat(path); err != nil {
			t.Errorf("EXPERIMENTS.md cites %s: %v", path, err)
		}
	}
	if n == 0 {
		t.Fatal("found no cited files; the pattern no longer matches the document")
	}
}
