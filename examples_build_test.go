package mcaverify_test

import (
	"go/ast"
	"go/parser"
	"go/token"
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
)

// TestExamplesBuild compiles every example program. The examples have
// no test files of their own, so without this smoke check a refactor of
// the public API could break them silently.
func TestExamplesBuild(t *testing.T) {
	if _, err := exec.LookPath("go"); err != nil {
		t.Skip("go toolchain not on PATH")
	}
	out, err := exec.Command("go", "build", "./examples/...").CombinedOutput()
	if err != nil {
		t.Fatalf("examples failed to build: %v\n%s", err, out)
	}
}

// goList runs `go list` with the given arguments and returns the set of
// import paths it prints.
func goList(t *testing.T, args ...string) map[string]bool {
	t.Helper()
	out, err := exec.Command("go", append([]string{"list"}, args...)...).Output()
	if err != nil {
		t.Fatalf("go list %v: %v", args, err)
	}
	set := map[string]bool{}
	for _, p := range strings.Fields(string(out)) {
		set[p] = true
	}
	return set
}

// TestLayerMapIsImportGraph pins the drawn layer map to the import
// graph: every internal package is reachable from a command, an example
// or the facade (an unreachable one is dead weight, however well
// tested), and every internal/<name> the README and
// docs/ARCHITECTURE.md mention exists.
func TestLayerMapIsImportGraph(t *testing.T) {
	if _, err := exec.LookPath("go"); err != nil {
		t.Skip("go toolchain not on PATH")
	}
	reached := goList(t, "-deps", "./cmd/...", "./examples/...", ".")
	for pkg := range goList(t, "./internal/...") {
		if !reached[pkg] {
			t.Errorf("%s is imported by no command, example or the facade", pkg)
		}
	}
	mention := regexp.MustCompile(`internal/[a-z]+`)
	for _, doc := range []string{"README.md", "docs/ARCHITECTURE.md"} {
		text, err := os.ReadFile(doc)
		if err != nil {
			t.Fatal(err)
		}
		for _, dir := range mention.FindAllString(string(text), -1) {
			if _, err := os.Stat(dir); err != nil {
				t.Errorf("%s mentions %s, which does not exist", doc, dir)
			}
		}
	}
}

// TestFacadeIsWhatExamplesUse pins the facade's contract: every function
// mcaverify.go exports is called by an example program, a godoc example
// or a root test. A re-export nothing here exercises is API nobody
// promised; delete it (the internal package keeps the function) or add
// the example that shows what it is for.
func TestFacadeIsWhatExamplesUse(t *testing.T) {
	fset := token.NewFileSet()
	facade, err := parser.ParseFile(fset, "mcaverify.go", nil, 0)
	if err != nil {
		t.Fatal(err)
	}
	users, err := filepath.Glob("examples/*/*.go")
	if err != nil {
		t.Fatal(err)
	}
	tests, err := filepath.Glob("*_test.go")
	if err != nil {
		t.Fatal(err)
	}
	used := map[string]bool{}
	for _, path := range append(users, tests...) {
		f, err := parser.ParseFile(fset, path, nil, 0)
		if err != nil {
			t.Fatal(err)
		}
		ast.Inspect(f, func(n ast.Node) bool {
			if sel, ok := n.(*ast.SelectorExpr); ok {
				if x, ok := sel.X.(*ast.Ident); ok && x.Name == "mcaverify" {
					used[sel.Sel.Name] = true
				}
			}
			return true
		})
	}
	for _, decl := range facade.Decls {
		if fn, ok := decl.(*ast.FuncDecl); ok && fn.Recv == nil && fn.Name.IsExported() && !used[fn.Name.Name] {
			t.Errorf("mcaverify.%s is exported but no example, godoc example or root test calls it", fn.Name.Name)
		}
	}
}
