package repro

import (
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"os"
	"path/filepath"
	"regexp"
	"slices"
	"sort"
	"strconv"
	"strings"
	"testing"
	"unicode/utf8"
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

// changesEntry matches the first line of a CHANGES.md entry, "PR <n>:".
var changesEntry = regexp.MustCompile(`^PR (\d+):`)

// TestChangesLinesCapped: CHANGES.md gives each PR one line, and from
// entry 43 on, where ROADMAP item 8(d)'s cap began, a line holds at most
// 1,200 characters.
func TestChangesLinesCapped(t *testing.T) {
	text, err := os.ReadFile("CHANGES.md")
	if err != nil {
		t.Fatal(err)
	}
	seen := map[int]bool{}
	for i, line := range strings.Split(string(text), "\n") {
		m := changesEntry.FindStringSubmatch(line)
		if m == nil {
			continue
		}
		n, _ := strconv.Atoi(m[1])
		if seen[n] {
			t.Errorf("line %d: PR %d has a second line", i+1, n)
		}
		seen[n] = true
		if c := utf8.RuneCountInString(line); n >= 43 && c > 1200 {
			t.Errorf("line %d: PR %d's line has %d characters, above the cap of 1,200", i+1, n, c)
		}
	}
}

// docBudgets is each narrative document's size ceiling in bytes. Lower
// a budget when its document shrinks; never raise one to pass.
var docBudgets = map[string]int64{
	"EXPERIMENTS.md": 121718,
	"PROTOCOL.md":    83718,
	"DESIGN.md":      63150,
}

// TestDocsWithinBudget: no document grows past its committed budget, so
// a fact added to one is paid for by prose taken out (ROADMAP item 8(d)).
func TestDocsWithinBudget(t *testing.T) {
	for doc, budget := range docBudgets {
		fi, err := os.Stat(doc)
		if err != nil {
			t.Fatal(err)
		}
		if fi.Size() > budget {
			t.Errorf("%s is %d bytes, above its budget of %d", doc, fi.Size(), budget)
		}
	}
}

// makeRun matches a Makefile `go test` line that selects with -run: the
// quoted pattern, then the package directories the line runs.
var makeRun = regexp.MustCompile(`-run '([^']*)'((?: \./\S+)*)`)

// definedRunnable matches a Test, Fuzz or Benchmark function's
// declaration: what go test -run selects among.
var definedRunnable = regexp.MustCompile(`(?m)^func ((?:Test|Fuzz|Benchmark)\w*)\(`)

// TestMakeRunPatternsMatch: every |-alternative of every -run pattern in
// the Makefile matches at least one Test, Fuzz or Benchmark function of
// the packages its line runs. go test -run with no match still passes,
// so a renamed test would otherwise drop silently out of its race
// -count=2, GOMAXPROCS or zero-allocation line. profile's '^$' selects
// no test on purpose and is skipped.
func TestMakeRunPatternsMatch(t *testing.T) {
	mk, err := os.ReadFile("Makefile")
	if err != nil {
		t.Fatal(err)
	}
	alternatives := 0
	for _, m := range makeRun.FindAllStringSubmatch(string(mk), -1) {
		pattern, dirs := strings.ReplaceAll(m[1], "$$", "$"), strings.Fields(m[2])
		if pattern == "^$" {
			continue
		}
		var funcs []string
		for _, dir := range dirs {
			files, err := filepath.Glob(filepath.Join(dir, "*_test.go"))
			if err != nil {
				t.Fatal(err)
			}
			for _, f := range files {
				src, err := os.ReadFile(f)
				if err != nil {
					t.Fatal(err)
				}
				for _, d := range definedRunnable.FindAllSubmatch(src, -1) {
					funcs = append(funcs, string(d[1]))
				}
			}
		}
		for _, alt := range strings.Split(pattern, "|") {
			alternatives++
			re, err := regexp.Compile(alt)
			if err != nil {
				t.Errorf("Makefile -run alternative %q: %v", alt, err)
				continue
			}
			if !slices.ContainsFunc(funcs, re.MatchString) {
				t.Errorf("Makefile -run alternative %q matches no test in %s", alt, strings.Join(dirs, " "))
			}
		}
	}
	if alternatives == 0 {
		t.Fatal("found no -run pattern in the Makefile")
	}
	t.Logf("%d -run alternatives checked", alternatives)
}

// citedCode matches a backticked span that cites code: `pkg.Name` or
// `pkg.Name.Member`, optionally followed by arguments, type parameters or
// a composite literal (`rig.Run(sc)`, `core.Flat[T]`, `rig.Scenario{…`).
var citedCode = regexp.MustCompile("`([a-z][a-z0-9]*)\\.([A-Za-z]\\w*)(?:\\.([A-Za-z]\\w*))?(?:[(\\[{][^`]*)?`")

// TestDocsCiteLiveCode: every `pkg.Name` or `pkg.Name.Member` that
// PROTOCOL.md, DESIGN.md or README.md cites, where pkg is a package
// under internal/, names a declaration of that package's non-test files
// — a function, type, variable or constant, or a method or field of one
// of its types, bare (`kernel.SetTracer`) or with the type
// (`kernel.Process.ReplySegment`).
// Test names are TestDocsCiteLiveTests'; a name with an underscore is a
// benchmark metric (`nametree.get_steps`) and `pkg.go` a file, neither of
// them code. Every backticked `*.txt` or `*.json` file they cite must be
// in the tree, matched by base name (`golden_trace.json` lives in a
// testdata directory). EXPERIMENTS.md and CHANGES.md record code as it
// was and are not checked. Deleted or renamed code fails here until the
// documents stop citing it.
func TestDocsCiteLiveCode(t *testing.T) {
	files := map[string]bool{} // base names of the tree's files
	err := filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() && strings.HasPrefix(d.Name(), ".") && path != "." {
			return filepath.SkipDir
		}
		files[d.Name()] = true
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	decls := map[string]map[string]bool{} // package → Name and Name.Member
	err = filepath.WalkDir("internal", func(path string, d fs.DirEntry, err error) error {
		if err != nil || !d.IsDir() {
			return err
		}
		names, err := packageDecls(path)
		if err != nil {
			return err
		}
		if len(names) > 0 {
			decls[filepath.Base(path)] = names
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	for _, doc := range []string{"PROTOCOL.md", "DESIGN.md", "README.md"} {
		text, err := os.ReadFile(doc)
		if err != nil {
			t.Fatal(err)
		}
		for _, m := range citedCode.FindAllStringSubmatch(string(text), -1) {
			pkg, name, member := m[1], m[2], m[3]
			names, ok := decls[pkg]
			if !ok || name == "go" || strings.Contains(name, "_") || citedTest.MatchString(name) {
				continue
			}
			cited := name
			if member != "" {
				cited += "." + member
			}
			if !names[cited] {
				t.Errorf("%s cites %s.%s, which internal/%s does not declare", doc, pkg, cited, pkg)
			}
		}
		for _, m := range citedFile.FindAllStringSubmatch(string(text), -1) {
			if !files[filepath.Base(m[1])] {
				t.Errorf("%s cites %s, which is not in the tree", doc, m[1])
			}
		}
	}
}

// citedFile matches a backticked path to a text or JSON file.
var citedFile = regexp.MustCompile("`([\\w./-]+\\.(?:txt|json))`")

// packageDecls returns what the non-test Go files of dir declare at top
// level, as Name, and the methods and fields of its types, as Member and
// as Type.Member. An alias type has its target's members.
func packageDecls(dir string) (map[string]bool, error) {
	pkgs, err := parser.ParseDir(token.NewFileSet(), dir, func(fi fs.FileInfo) bool {
		return !strings.HasSuffix(fi.Name(), "_test.go")
	}, parser.SkipObjectResolution)
	if err != nil {
		return nil, err
	}
	names := map[string]bool{}
	aliases := map[string]string{}
	typeName := func(e ast.Expr) string {
		for {
			switch x := e.(type) {
			case *ast.StarExpr:
				e = x.X
			case *ast.IndexExpr:
				e = x.X
			case *ast.IndexListExpr:
				e = x.X
			case *ast.SelectorExpr:
				return x.Sel.Name
			case *ast.Ident:
				return x.Name
			default:
				return ""
			}
		}
	}
	member := func(owner, name string) {
		names[name] = true
		names[owner+"."+name] = true
	}
	members := func(owner string, fields *ast.FieldList) {
		for _, f := range fields.List {
			for _, n := range f.Names {
				member(owner, n.Name)
			}
			if len(f.Names) == 0 { // embedded
				member(owner, typeName(f.Type))
			}
		}
	}
	for _, pkg := range pkgs {
		for _, file := range pkg.Files {
			for _, decl := range file.Decls {
				switch d := decl.(type) {
				case *ast.FuncDecl:
					if d.Recv == nil {
						names[d.Name.Name] = true
					} else {
						member(typeName(d.Recv.List[0].Type), d.Name.Name)
					}
				case *ast.GenDecl:
					for _, spec := range d.Specs {
						switch sp := spec.(type) {
						case *ast.TypeSpec:
							names[sp.Name.Name] = true
							if sp.Assign.IsValid() {
								aliases[sp.Name.Name] = typeName(sp.Type)
							}
							switch ty := sp.Type.(type) {
							case *ast.StructType:
								members(sp.Name.Name, ty.Fields)
							case *ast.InterfaceType:
								members(sp.Name.Name, ty.Methods)
							}
						case *ast.ValueSpec:
							for _, n := range sp.Names {
								names[n.Name] = true
							}
						}
					}
				}
			}
		}
	}
	for alias, target := range aliases {
		for name := range names {
			if member, ok := strings.CutPrefix(name, target+"."); ok {
				names[alias+"."+member] = true
			}
		}
	}
	return names, nil
}
