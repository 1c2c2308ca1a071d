package mrinverse_test

import (
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"testing"
)

// TestInternalExportsHaveOutsideCallers keeps internal/ API to what some
// other package calls: every exported top-level function declared in a
// non-test file of internal/<pkg> must be referenced as <pkg>.Name from a
// .go file outside that package's directory. Test files and examples/
// count as callers; testdata/ does not. Methods are out of scope: a
// syntactic scan cannot see a method satisfy an interface.
func TestInternalExportsHaveOutsideCallers(t *testing.T) {
	const module = "repro"
	fset := token.NewFileSet()
	declared := map[string]token.Position{} // "importpath.Name" -> declaration
	used := map[string]bool{}               // "importpath.Name" referenced from another directory
	err := filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if path != "." && (d.Name() == "testdata" || strings.HasPrefix(d.Name(), ".")) {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(path, ".go") {
			return nil
		}
		f, err := parser.ParseFile(fset, path, nil, parser.SkipObjectResolution)
		if err != nil {
			return err
		}
		dir := filepath.ToSlash(filepath.Dir(path))
		self := module + "/" + dir
		if strings.HasPrefix(dir, "internal/") && !strings.HasSuffix(path, "_test.go") {
			for _, decl := range f.Decls {
				if fn, ok := decl.(*ast.FuncDecl); ok && fn.Recv == nil && fn.Name.IsExported() {
					declared[self+"."+fn.Name.Name] = fset.Position(fn.Pos())
				}
			}
		}
		imports := map[string]string{} // local name -> import path
		for _, spec := range f.Imports {
			p, _ := strconv.Unquote(spec.Path.Value)
			name := p[strings.LastIndex(p, "/")+1:]
			if spec.Name != nil {
				name = spec.Name.Name
			}
			imports[name] = p
		}
		ast.Inspect(f, func(n ast.Node) bool {
			sel, ok := n.(*ast.SelectorExpr)
			if !ok {
				return true
			}
			if x, ok := sel.X.(*ast.Ident); ok {
				if p, ok := imports[x.Name]; ok && p != self {
					used[p+"."+sel.Sel.Name] = true
				}
			}
			return true
		})
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(declared) == 0 {
		t.Fatal("found no exported functions under internal/; is the test running from the module root?")
	}
	var unused []string
	for name, pos := range declared {
		if !used[name] {
			unused = append(unused, pos.String()+": "+strings.TrimPrefix(name, module+"/"))
		}
	}
	sort.Strings(unused)
	if len(unused) > 0 {
		t.Errorf("%d exported functions in internal/ have no caller outside their package; delete or unexport them:\n\t%s",
			len(unused), strings.Join(unused, "\n\t"))
	}
}
