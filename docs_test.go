package repro

import (
	"io/fs"
	"os"
	"path/filepath"
	"regexp"
	"sort"
	"strings"
	"testing"
)

// citedTest matches a test name a document cites: TestXxx, or TestXxx*
// for every test whose name starts with TestXxx.
var citedTest = regexp.MustCompile(`\bTest[A-Z][A-Za-z0-9_]*\*?`)

// definedTest matches a test function's declaration.
var definedTest = regexp.MustCompile(`(?m)^func (Test[A-Z][A-Za-z0-9_]*)\(`)

// TestDocsCiteLiveTests: every test the documents name is defined by
// some _test.go in the tree, and every trailing-* prefix they name
// matches at least one. A deleted or renamed test fails here until the
// documents stop citing it.
func TestDocsCiteLiveTests(t *testing.T) {
	defined := map[string]bool{}
	err := filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() && strings.HasPrefix(d.Name(), ".") && path != "." {
			return filepath.SkipDir
		}
		if d.IsDir() || !strings.HasSuffix(path, "_test.go") {
			return nil
		}
		src, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		for _, m := range definedTest.FindAllSubmatch(src, -1) {
			defined[string(m[1])] = true
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	names := make([]string, 0, len(defined))
	for name := range defined {
		names = append(names, name)
	}
	sort.Strings(names)
	live := func(cited string) bool {
		pfx, glob := strings.CutSuffix(cited, "*")
		if !glob {
			return defined[cited]
		}
		i := sort.SearchStrings(names, pfx)
		return i < len(names) && strings.HasPrefix(names[i], pfx)
	}
	for _, doc := range []string{"PROTOCOL.md", "DESIGN.md", "README.md", "EXPERIMENTS.md"} {
		text, err := os.ReadFile(doc)
		if err != nil {
			t.Fatal(err)
		}
		for _, cited := range citedTest.FindAllString(string(text), -1) {
			if !live(cited) {
				t.Errorf("%s cites %s, which no _test.go defines", doc, cited)
			}
		}
	}
}
