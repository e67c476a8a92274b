package lint

import (
	"io/fs"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
)

// citedDocs are the documents whose test citations must resolve.
// cmd/codaperf/README.md is left out: the benchmark's tree is edited
// only together with its benchmark.
var citedDocs = []string{"DESIGN.md", "README.md", "EXPERIMENTS.md"}

// designLines is DESIGN.md's line budget: a change that needs more lines
// there removes as many elsewhere in it.
const designLines = 1984

// suppressionBudget caps the module's //codalint:ignore directives, the
// count codalint -ignores prints (TestRepoIsLintClean): a change that
// needs a new one removes another.
const suppressionBudget = 20

var (
	citedTestRe   = regexp.MustCompile(`\b(?:Test|Benchmark|Fuzz)[A-Z0-9_][A-Za-z0-9_]*\*?`)
	definedTestRe = regexp.MustCompile(`(?m)^func ((?:Test|Benchmark|Fuzz)[A-Za-z0-9_]*)\(`)
)

// staleCitations returns the Test/Benchmark/Fuzz names doc cites that
// defined lacks. A name ending in * cites a prefix (TestAlloc*), which
// holds when some defined name carries it.
func staleCitations(doc string, defined map[string]bool) []string {
	var stale []string
	seen := make(map[string]bool)
	for _, name := range citedTestRe.FindAllString(doc, -1) {
		if seen[name] {
			continue
		}
		seen[name] = true
		ok := defined[name]
		if prefix, isPrefix := strings.CutSuffix(name, "*"); isPrefix {
			for d := range defined {
				if strings.HasPrefix(d, prefix) {
					ok = true
					break
				}
			}
		}
		if !ok {
			stale = append(stale, name)
		}
	}
	return stale
}

// TestDocsCiteOnlyExistingTests: every test, benchmark and fuzz target
// the design notes, README and experiment log name is defined in the
// module's test files, so a rename or deletion cannot leave a document
// pointing at nothing; and DESIGN.md stays within designLines.
func TestDocsCiteOnlyExistingTests(t *testing.T) {
	t.Parallel()
	root, err := FindModuleRoot(".")
	if err != nil {
		t.Fatal(err)
	}
	defined := make(map[string]bool)
	err = filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() && (d.Name() == "testdata" || strings.HasPrefix(d.Name(), ".")) && path != root {
			return filepath.SkipDir
		}
		if d.IsDir() || !strings.HasSuffix(path, "_test.go") {
			return nil
		}
		src, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		for _, m := range definedTestRe.FindAllStringSubmatch(string(src), -1) {
			defined[m[1]] = true
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if got := staleCitations("TestDocsCiteOnlyExistingTests, TestNoSuchTest", defined); len(got) != 1 || got[0] != "TestNoSuchTest" {
		t.Fatalf("the fence does not bite: an invented name gives %v", got)
	}
	for _, name := range citedDocs {
		doc, err := os.ReadFile(filepath.Join(root, name))
		if err != nil {
			t.Fatal(err)
		}
		for _, s := range staleCitations(string(doc), defined) {
			t.Errorf("%s cites %s, which no test file defines", name, s)
		}
		if n := strings.Count(string(doc), "\n"); name == "DESIGN.md" && n > designLines {
			t.Errorf("DESIGN.md is %d lines, over its budget of %d: remove lines elsewhere in it", n, designLines)
		}
	}
}
