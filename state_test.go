package thermostat

import (
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"path/filepath"
	"strings"
	"testing"
)

// mutableStateAllowlist names the package-level vars under internal/ that may
// stay, keyed "package.name", each with the reason it is safe.
var mutableStateAllowlist = map[string]string{
	"daemon.discardLogger": "a *slog.Logger is immutable and safe for concurrent use; " +
		"building one per logger() call would allocate on every log site",
}

// TestNoMutablePackageState keeps internal/ free of package-level variables,
// so tests running in parallel cannot interfere through shared state. Every
// package-level var is reported, whatever its type: go/parser cannot resolve
// a named type to tell a struct from a scalar, and a constant belongs in a
// const, a func or a switch. Exempt are errors.New sentinels, `var _ I = …`
// interface assertions and mutableStateAllowlist.
func TestNoMutablePackageState(t *testing.T) {
	fset := token.NewFileSet()
	seen := map[string]bool{}
	err := filepath.WalkDir("internal", func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() && d.Name() == "testdata" {
			return filepath.SkipDir
		}
		if d.IsDir() || !strings.HasSuffix(path, ".go") || strings.HasSuffix(path, "_test.go") {
			return nil
		}
		f, err := parser.ParseFile(fset, path, nil, 0)
		if err != nil {
			return err
		}
		for _, decl := range f.Decls {
			gd, ok := decl.(*ast.GenDecl)
			if !ok || gd.Tok != token.VAR {
				continue
			}
			for _, spec := range gd.Specs {
				vs := spec.(*ast.ValueSpec)
				for i, name := range vs.Names {
					key := f.Name.Name + "." + name.Name
					seen[key] = true
					if name.Name == "_" || isErrorsNew(vs, i) || mutableStateAllowlist[key] != "" {
						continue
					}
					t.Errorf("%s: package-level var %s: make it a const, a func or a switch, "+
						"or allowlist it with a reason", fset.Position(name.Pos()), key)
				}
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	for key := range mutableStateAllowlist {
		if !seen[key] {
			t.Errorf("allowlisted %s no longer exists: drop it from the allowlist", key)
		}
	}
}

// isErrorsNew reports whether the i'th value of vs is an errors.New call.
func isErrorsNew(vs *ast.ValueSpec, i int) bool {
	if i >= len(vs.Values) {
		return false
	}
	call, ok := vs.Values[i].(*ast.CallExpr)
	if !ok {
		return false
	}
	sel, ok := call.Fun.(*ast.SelectorExpr)
	if !ok {
		return false
	}
	pkg, ok := sel.X.(*ast.Ident)
	return ok && pkg.Name == "errors" && sel.Sel.Name == "New"
}
