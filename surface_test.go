package scalesim

import (
	"go/ast"
	"go/parser"
	"go/token"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"testing"
)

// exportedNames lists the package's exported surface as parsed from its
// non-test sources in dir: one "const X", "var X", "func X", "type X" or
// "method T.M" line per exported identifier (methods only on exported
// receiver types), sorted.
func exportedNames(t *testing.T, dir string) []string {
	t.Helper()
	paths, err := filepath.Glob(filepath.Join(dir, "*.go"))
	if err != nil {
		t.Fatal(err)
	}
	fset := token.NewFileSet()
	var names []string
	for _, p := range paths {
		if strings.HasSuffix(p, "_test.go") {
			continue
		}
		f, err := parser.ParseFile(fset, p, nil, parser.SkipObjectResolution)
		if err != nil {
			t.Fatal(err)
		}
		for _, d := range f.Decls {
			switch d := d.(type) {
			case *ast.FuncDecl:
				switch {
				case !d.Name.IsExported():
				case d.Recv == nil:
					names = append(names, "func "+d.Name.Name)
				default:
					recv := d.Recv.List[0].Type
					if star, ok := recv.(*ast.StarExpr); ok {
						recv = star.X
					}
					if id, ok := recv.(*ast.Ident); ok && id.IsExported() {
						names = append(names, "method "+id.Name+"."+d.Name.Name)
					}
				}
			case *ast.GenDecl:
				for _, spec := range d.Specs {
					switch s := spec.(type) {
					case *ast.TypeSpec:
						if s.Name.IsExported() {
							names = append(names, "type "+s.Name.Name)
						}
					case *ast.ValueSpec:
						for _, n := range s.Names {
							if n.IsExported() {
								names = append(names, d.Tok.String()+" "+n.Name)
							}
						}
					}
				}
			}
		}
	}
	slices.Sort(names)
	return names
}

// TestExportedSurface pins the package's exported identifiers to
// testdata/api.txt, so adding or removing a public name shows as a diff to
// that file.
func TestExportedSurface(t *testing.T) {
	raw, err := os.ReadFile(filepath.Join("testdata", "api.txt"))
	if err != nil {
		t.Fatal(err)
	}
	want := strings.Split(strings.TrimSpace(string(raw)), "\n")
	got := exportedNames(t, ".")
	for _, n := range got {
		if !slices.Contains(want, n) {
			t.Errorf("exported but not in testdata/api.txt: %s", n)
		}
	}
	for _, n := range want {
		if !slices.Contains(got, n) {
			t.Errorf("in testdata/api.txt but not exported: %s", n)
		}
	}
	if !slices.Equal(got, want) && !t.Failed() {
		t.Errorf("testdata/api.txt is not sorted or repeats a line; want:\n%s", strings.Join(got, "\n"))
	}
}
