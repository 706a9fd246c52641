package lint_test

import (
	"cmp"
	"go/ast"
	"go/types"
	"path/filepath"
	"slices"
	"strings"
	"testing"

	"repro/internal/lint"
)

// testOnlyExports reports every exported package-level declaration and
// every exported method of the packages inScope selects that no non-test
// code of pkgs references (LoadPatterns loads non-test files only).
//
// Packages are type-checked one at a time against export data, so a use
// in one package and the declaration in another are different objects:
// both sides are keyed by package path, receiver and name instead. A
// method also counts as used when it implements an interface method (an
// interface of the program has a method of its name and signature),
// since a call through the interface records the interface's method.
func testOnlyExports(pkgs []*lint.LoadedPackage, inScope func(path string) bool) []lint.Diagnostic {
	used := map[string]bool{}
	ifaceMethods := map[string]bool{} // by methodSig
	addIface := func(t types.Type) {
		if it, ok := t.Underlying().(*types.Interface); ok {
			for i := 0; i < it.NumMethods(); i++ {
				ifaceMethods[methodSig(it.Method(i))] = true
			}
		}
	}
	addIface(types.Universe.Lookup("error").Type())
	seen := map[*types.Package]bool{}
	var visit func(p *types.Package)
	visit = func(p *types.Package) {
		if seen[p] {
			return
		}
		seen[p] = true
		for _, name := range p.Scope().Names() {
			if tn, ok := p.Scope().Lookup(name).(*types.TypeName); ok {
				if named, ok := tn.Type().(*types.Named); ok && named.TypeParams().Len() == 0 {
					addIface(named)
				}
			}
		}
		for _, imp := range p.Imports() {
			visit(imp)
		}
	}
	for _, lp := range pkgs {
		visit(lp.Pkg)
		for _, tv := range lp.Info.Types {
			addIface(tv.Type)
		}
		receivers := map[*ast.Ident]bool{} // a receiver names its type without using it
		for _, f := range lp.Files {
			for _, decl := range f.Decls {
				if fd, ok := decl.(*ast.FuncDecl); ok && fd.Recv != nil {
					ast.Inspect(fd.Recv, func(n ast.Node) bool {
						if id, ok := n.(*ast.Ident); ok {
							receivers[id] = true
						}
						return true
					})
				}
			}
		}
		for id, obj := range lp.Info.Uses {
			if !receivers[id] {
				used[exportKey(obj)] = true
			}
		}
	}

	var diags []lint.Diagnostic
	for _, lp := range pkgs {
		if !inScope(lp.Path) {
			continue
		}
		check := func(id *ast.Ident, docs ...*ast.CommentGroup) {
			if !id.IsExported() || used[exportKey(lp.Info.Defs[id])] || slices.ContainsFunc(docs, hasAPIDirective) {
				return
			}
			what := id.Name
			if fn, ok := lp.Info.Defs[id].(*types.Func); ok {
				if recv := recvNamed(fn); recv != nil {
					if ifaceMethods[methodSig(fn)] {
						return
					}
					what = recv.Obj().Name() + "." + what
				}
			}
			diags = append(diags, lint.Diagnostic{
				Analyzer: "testonly",
				Pos:      lp.Fset.Position(id.Pos()),
				Message:  "exported " + what + " has no non-test reference; delete it or mark it //studyvet:api — <reason>",
			})
		}
		for _, f := range lp.Files {
			for _, decl := range f.Decls {
				switch d := decl.(type) {
				case *ast.FuncDecl:
					check(d.Name, d.Doc)
				case *ast.GenDecl:
					for _, spec := range d.Specs {
						switch s := spec.(type) {
						case *ast.TypeSpec:
							check(s.Name, d.Doc, s.Doc, s.Comment)
						case *ast.ValueSpec:
							for _, name := range s.Names {
								check(name, d.Doc, s.Doc, s.Comment)
							}
						}
					}
				}
			}
		}
	}
	slices.SortFunc(diags, func(a, b lint.Diagnostic) int {
		return cmp.Or(cmp.Compare(a.Pos.Filename, b.Pos.Filename), cmp.Compare(a.Pos.Line, b.Pos.Line))
	})
	return diags
}

// exportKey names a package-level object or method the same way whether
// it was type-checked from source or read from export data.
func exportKey(obj types.Object) string {
	if obj == nil || obj.Pkg() == nil {
		return ""
	}
	if fn, ok := obj.(*types.Func); ok {
		if recv := recvNamed(fn.Origin()); recv != nil {
			return fn.Pkg().Path() + "." + recv.Obj().Name() + "." + fn.Name()
		}
	}
	return obj.Pkg().Path() + "." + obj.Name()
}

// recvNamed returns the named type of a method's receiver (through one
// pointer), or nil for a function or an interface method.
func recvNamed(fn *types.Func) *types.Named {
	recv := fn.Type().(*types.Signature).Recv()
	if recv == nil {
		return nil
	}
	t := recv.Type()
	if p, ok := t.(*types.Pointer); ok {
		t = p.Elem()
	}
	if named, ok := t.(*types.Named); ok && !types.IsInterface(named) {
		return named.Origin()
	}
	return nil
}

// methodSig prints a method's name, parameter and result types with
// package paths, so one method compares equal across source and export
// data whatever its parameters are named.
func methodSig(m *types.Func) string {
	sig := m.Type().(*types.Signature)
	var b strings.Builder
	b.WriteString(m.Name())
	for _, tuple := range []*types.Tuple{sig.Params(), sig.Results()} {
		b.WriteByte('(')
		for i := 0; i < tuple.Len(); i++ {
			b.WriteString(types.TypeString(tuple.At(i).Type(), (*types.Package).Path) + ",")
		}
		b.WriteByte(')')
	}
	if sig.Variadic() {
		b.WriteString("...")
	}
	return b.String()
}

// hasAPIDirective reports an exemption: //studyvet:api — <why it stays>
// on the declaration or its const/type block.
func hasAPIDirective(doc *ast.CommentGroup) bool {
	return doc != nil && slices.ContainsFunc(doc.List, func(c *ast.Comment) bool { return strings.HasPrefix(c.Text, "//studyvet:api") })
}

// repoPkgs caches repoPackages; the tests sharing it run sequentially.
var repoPkgs []*lint.LoadedPackage

// repoPackages loads every package of the repository module and of the
// benchmark module beside it, once per test binary.
func repoPackages(t *testing.T) []*lint.LoadedPackage {
	t.Helper()
	if repoPkgs != nil {
		return repoPkgs
	}
	root, err := filepath.Abs(filepath.Join("..", ".."))
	if err != nil {
		t.Fatal(err)
	}
	pkgs, err := lint.LoadPatterns(root, "./...")
	if err == nil {
		var bench []*lint.LoadedPackage
		bench, err = lint.LoadPatterns(filepath.Join(root, "bench"), ".")
		pkgs = append(pkgs, bench...)
	}
	if err != nil {
		t.Fatalf("loading module packages: %v", err)
	}
	repoPkgs = pkgs
	return pkgs
}

// TestNoTestOnlyExports fails on an exported name of the library (the
// root package and internal/) that only tests call: code kept alive for
// its own test. The commands and the benchmark module count as callers.
func TestNoTestOnlyExports(t *testing.T) {
	if testing.Short() {
		t.Skip("loads and type-checks the whole module")
	}
	inScope := func(path string) bool { return path == "repro" || strings.HasPrefix(path, "repro/internal/") }
	for _, d := range testOnlyExports(repoPackages(t), inScope) {
		t.Errorf("%s: %s", d.Pos, d.Message)
	}
}

func TestGoldenTestOnlyExports(t *testing.T) {
	ti := newTestImporter(t)
	var pkgs []*lint.LoadedPackage
	for _, path := range []string{"testonly", "testonlyuse"} {
		lp, err := ti.load(path)
		if err != nil || lp == nil {
			t.Fatalf("loading %s: %v", path, err)
		}
		pkgs = append(pkgs, lp)
	}
	checkWants(t, pkgs[0], testOnlyExports(pkgs, func(path string) bool { return path == "testonly" }))
}
