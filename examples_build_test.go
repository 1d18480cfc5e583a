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

// TestOptionsAreSet pins the options count: every exported field of
// every exported ...Options struct under internal/ is set — as a key in
// a composite literal of that struct or as the target of an assignment —
// by some non-test .go file other than the one declaring it. A field
// only its own package's defaults and tests touch is a constant with
// extra steps: make it one, or add the caller that needs the choice.
func TestOptionsAreSet(t *testing.T) {
	fset := token.NewFileSet()
	type field struct{ owner, declaredIn string } // owner is pkg.Struct
	fields := map[string][]field{}                // by field name
	var files []*ast.File
	err := filepath.WalkDir(".", func(path string, d os.DirEntry, err error) error {
		if err != nil || d.IsDir() || !strings.HasSuffix(path, ".go") || strings.HasSuffix(path, "_test.go") {
			return err
		}
		f, err := parser.ParseFile(fset, path, nil, 0)
		if err != nil {
			return err
		}
		files = append(files, f)
		if !strings.HasPrefix(path, "internal/") {
			return nil
		}
		ast.Inspect(f, func(n ast.Node) bool {
			ts, ok := n.(*ast.TypeSpec)
			st, isStruct := (*ast.StructType)(nil), false
			if ok {
				st, isStruct = ts.Type.(*ast.StructType)
			}
			if !isStruct || !ts.Name.IsExported() || !strings.HasSuffix(ts.Name.Name, "Options") {
				return true
			}
			for _, fl := range st.Fields.List {
				for _, name := range fl.Names {
					if name.IsExported() {
						fields[name.Name] = append(fields[name.Name], field{f.Name.Name + "." + ts.Name.Name, path})
					}
				}
			}
			return false
		})
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	// set[file][field name] → the struct names it was set on ("" when the
	// syntax does not say: an assignment through a variable).
	set := map[string]map[string][]string{}
	for _, f := range files {
		path := fset.Position(f.Pos()).Filename
		set[path] = map[string][]string{}
		ast.Inspect(f, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.CompositeLit:
				name := ""
				switch typ := n.Type.(type) {
				case *ast.Ident:
					name = typ.Name
				case *ast.SelectorExpr:
					name = typ.Sel.Name
				}
				for _, el := range n.Elts {
					if kv, ok := el.(*ast.KeyValueExpr); ok {
						if key, ok := kv.Key.(*ast.Ident); ok {
							set[path][key.Name] = append(set[path][key.Name], name)
						}
					}
				}
			case *ast.AssignStmt:
				for _, lhs := range n.Lhs {
					if sel, ok := lhs.(*ast.SelectorExpr); ok {
						set[path][sel.Sel.Name] = append(set[path][sel.Sel.Name], "")
					}
				}
			}
			return true
		})
	}
	for name, owners := range fields {
		for _, fd := range owners {
			structName := fd.owner[strings.IndexByte(fd.owner, '.')+1:]
			found := false
			for path, names := range set {
				for _, on := range names[name] {
					found = found || (path != fd.declaredIn && (on == "" || on == structName))
				}
			}
			if !found {
				t.Errorf("%s.%s is set by no non-test file other than %s: make it a constant, or add the caller that needs it", fd.owner, name, fd.declaredIn)
			}
		}
	}
}
