package lint_test

import (
	"go/ast"
	"go/parser"
	"go/token"
	"go/types"
	"os"
	"path/filepath"
	"regexp"
	"slices"
	"strings"
	"testing"
	"unicode"

	"repro/internal/lint"
)

// docNames resolves the Go identifiers the prose documents name in
// backticks — `pkg.Name`, `Type.Field`, `Func`, `var.Field.Method` —
// against the loaded module.
type docNames struct {
	pkgs  map[string][]*types.Package // by package name; module packages from source
	heads map[string][]types.Object   // the module's package-scope objects, by name
	names map[string]bool             // those names, fields, methods, test declarations and package names
}

func newDocNames(t *testing.T, loaded []*lint.LoadedPackage) *docNames {
	t.Helper()
	d := &docNames{pkgs: map[string][]*types.Package{}, heads: map[string][]types.Object{}, names: map[string]bool{}}
	source := map[string]bool{}
	for _, lp := range loaded {
		source[lp.Path] = true
		d.pkgs[lp.Pkg.Name()] = append(d.pkgs[lp.Pkg.Name()], lp.Pkg)
		// Info.Defs also holds every local and parameter; a stale name
		// must not resolve because some function happens to use it.
		for _, obj := range lp.Info.Defs {
			switch {
			case obj == nil:
			case obj.Pkg() != nil && obj.Parent() == obj.Pkg().Scope():
				d.heads[obj.Name()] = append(d.heads[obj.Name()], obj)
			case isMember(obj):
				d.names[obj.Name()] = true
			}
		}
	}
	// The packages the module imports, from export data: `io.EOF`,
	// `json.Marshal`. A package only reached through another's export
	// data holds just what that one needed, so it does not count.
	seen := map[string]bool{}
	var visit func(p *types.Package)
	visit = func(p *types.Package) {
		if seen[p.Path()] || !p.Complete() {
			return
		}
		seen[p.Path()] = true
		if !source[p.Path()] {
			d.pkgs[p.Name()] = append(d.pkgs[p.Name()], p)
		}
		for _, imp := range p.Imports() {
			visit(imp)
		}
	}
	dirs := map[string]bool{}
	for _, lp := range loaded {
		visit(lp.Pkg)
		dirs[filepath.Dir(lp.Fset.Position(lp.Files[0].Pos()).Filename)] = true
	}
	// Test files are not type-checked; their top-level declarations
	// (`TestDatasetGolden`, `referenceWalk`) resolve by name alone, and
	// the standard packages only they import (`reflect.DeepEqual`) from
	// export data.
	fset := token.NewFileSet()
	var testImports []string
	for dir := range dirs {
		tests, err := filepath.Glob(filepath.Join(dir, "*_test.go"))
		if err != nil {
			t.Fatal(err)
		}
		for _, name := range tests {
			f, err := parser.ParseFile(fset, name, nil, parser.SkipObjectResolution)
			if err != nil {
				t.Fatal(err)
			}
			for _, imp := range f.Imports {
				if path := strings.Trim(imp.Path.Value, `"`); !seen[path] && !slices.Contains(testImports, path) {
					testImports = append(testImports, path)
				}
			}
			for _, decl := range f.Decls {
				switch decl := decl.(type) {
				case *ast.FuncDecl:
					d.names[decl.Name.Name] = true
				case *ast.GenDecl:
					for _, spec := range decl.Specs {
						switch spec := spec.(type) {
						case *ast.TypeSpec:
							d.names[spec.Name.Name] = true
						case *ast.ValueSpec:
							for _, id := range spec.Names {
								d.names[id.Name] = true
							}
						}
					}
				}
			}
		}
	}
	if len(testImports) > 0 {
		listed, err := lint.GoList(".", testImports...)
		if err != nil {
			t.Fatal(err)
		}
		exports := map[string]string{}
		for _, p := range listed {
			exports[p.ImportPath] = p.Export
		}
		imp := lint.NewExportImporter(fset, exports, nil)
		for _, path := range testImports {
			p, err := imp.Import(path)
			if err != nil {
				t.Fatal(err)
			}
			visit(p)
		}
	}
	for name := range d.heads {
		d.names[name] = true
	}
	for name := range d.pkgs {
		d.names[name] = true
	}
	return d
}

// isMember reports whether obj is a struct field or a method.
func isMember(obj types.Object) bool {
	switch obj := obj.(type) {
	case *types.Var:
		return obj.IsField()
	case *types.Func:
		return obj.Type().(*types.Signature).Recv() != nil
	}
	return false
}

// resolves reports whether a dotted name denotes something: a single
// package-scope name, field, method or test declaration of the module,
// or a chain whose head is a package or a package-scope type, variable
// or function and whose every later element is a member of what the
// one before it denotes.
func (d *docNames) resolves(name string) bool {
	segs := strings.Split(name, ".")
	if len(segs) == 1 {
		return d.names[name]
	}
	for _, p := range d.pkgs[segs[0]] {
		if obj := p.Scope().Lookup(segs[1]); obj != nil && member(obj, segs[2:]) {
			return true
		}
	}
	for _, obj := range d.heads[segs[0]] {
		if member(obj, segs[1:]) {
			return true
		}
	}
	return false
}

// member reports whether rest is a chain of fields and methods of what
// obj denotes: a type's, a variable's type's, or a function's first
// result's.
func member(obj types.Object, rest []string) bool {
	if len(rest) == 0 {
		return true
	}
	var t types.Type
	switch obj := obj.(type) {
	case *types.TypeName, *types.Var:
		t = obj.Type()
	case *types.Func:
		sig := obj.Type().(*types.Signature)
		if sig.Results().Len() == 0 {
			return false
		}
		t = sig.Results().At(0).Type()
	default:
		return false
	}
	base := t
	if p, ok := base.(*types.Pointer); ok {
		base = p.Elem()
	}
	var pkg *types.Package
	if named, ok := base.(*types.Named); ok {
		pkg = named.Obj().Pkg()
	}
	next, _, _ := types.LookupFieldOrMethod(t, true, pkg, rest[0])
	return next != nil && member(next, rest[1:])
}

var (
	codeSpan   = regexp.MustCompile("`([^`]+)`")
	callSuffix = regexp.MustCompile(`\([^()]*\)|\[[^\[\]]*\]`)
	dottedName = regexp.MustCompile(`^[A-Za-z][A-Za-z0-9]*(\.[A-Za-z][A-Za-z0-9]*)*$`)
	fileExt    = regexp.MustCompile(`\.(go|md|json|jsonl|ndjson|sh|mod|sum|ya?ml|txt|csv|out|prof)$`)
)

// docIdentifiers returns the backticked spans of text that name Go
// identifiers, with the line each starts on. A call's or an index's
// brackets are dropped (`World.SnapshotWave(w)` names
// World.SnapshotWave); spans with spaces, slashes, underscores or a
// file extension are commands, paths, metric names and files; a single
// word names an identifier only in mixed case (`uncachedCrypto`, not
// `measure` or `RTT`). Fenced code blocks are skipped.
func docIdentifiers(text string) map[string]int {
	ids := map[string]int{}
	line, fenced := 1, false
	var prose strings.Builder
	for _, l := range strings.SplitAfter(text, "\n") {
		if strings.HasPrefix(strings.TrimSpace(l), "```") {
			fenced = !fenced
			l = "\n"
		} else if fenced {
			l = "\n"
		}
		prose.WriteString(l)
	}
	text = prose.String()
	last := 0
	for _, m := range codeSpan.FindAllStringSubmatchIndex(text, -1) {
		line += strings.Count(text[last:m[0]], "\n")
		last = m[0]
		span := text[m[2]:m[3]]
		for prev := ""; prev != span; {
			prev, span = span, callSuffix.ReplaceAllString(span, "")
		}
		if !dottedName.MatchString(span) || fileExt.MatchString(span) {
			continue
		}
		if !strings.Contains(span, ".") && (!strings.ContainsFunc(span, unicode.IsUpper) || !strings.ContainsFunc(span, unicode.IsLower)) {
			continue
		}
		if _, ok := ids[span]; !ok {
			ids[span] = line
		}
	}
	return ids
}

// perPRSection is the heading of an EXPERIMENTS.md section that
// narrates one change: "## The merge side keeps pace (PR 41)".
var perPRSection = regexp.MustCompile(`(?m)^## .*\(PR \d+`)

// standingPart returns EXPERIMENTS.md's standing part: everything above
// its first per-change section. Those sections are the record of how a
// number was obtained, and may name what has since been deleted.
func standingPart(experiments string) string {
	if loc := perPRSection.FindStringIndex(experiments); loc != nil {
		return experiments[:loc[0]]
	}
	return experiments
}

// TestDocIdentifiersResolve fails on a backticked Go identifier in
// DESIGN.md, the verify skill, EXPERIMENTS.md's standing part or a
// package doc that names nothing in the module: documentation that
// drifted from the code. bench/README.md is left out while bench/ stays
// frozen until the benchmark ledger change rewrites it.
func TestDocIdentifiersResolve(t *testing.T) {
	if testing.Short() {
		t.Skip("loads and type-checks the whole module")
	}
	pkgs := repoPackages(t)
	d := newDocNames(t, pkgs)
	// The lint must be able to fail: on a field CampaignConfig never
	// had, and on names only a function's locals carry (Materialize's
	// takeKey closure, RunCampaignShard's sink parameter).
	for _, stale := range []string{"CampaignConfig.Quiet", "takeKey", "sink.Put"} {
		if d.resolves(stale) {
			t.Fatalf("resolver accepts the stale name %s", stale)
		}
	}
	if !d.resolves("CampaignConfig.Study") || !d.resolves("RecordSink.Put") {
		t.Fatal("resolver rejects a live name")
	}

	root, err := filepath.Abs(filepath.Join("..", ".."))
	if err != nil {
		t.Fatal(err)
	}
	docs := map[string]string{}
	for _, name := range []string{"DESIGN.md", filepath.Join(".claude", "skills", "verify", "SKILL.md"), "EXPERIMENTS.md"} {
		b, err := os.ReadFile(filepath.Join(root, name))
		if err != nil {
			t.Fatal(err)
		}
		docs[name] = string(b)
	}
	docs["EXPERIMENTS.md"] = standingPart(docs["EXPERIMENTS.md"])
	// The lint must be able to fail on EXPERIMENTS.md: on a stale name
	// planted in its standing part, and not on one below it.
	planted := "## Method\n\nSee `World.SetChaos`.\n\n## A change (PR 9)\n\n`normalizeWallClock`\n"
	if ids := docIdentifiers(standingPart(planted)); len(ids) != 1 || ids["World.SetChaos"] == 0 || d.resolves("World.SetChaos") {
		t.Fatalf("a stale name planted in EXPERIMENTS.md's standing part is not reported: read %v", ids)
	}
	for _, lp := range pkgs {
		for _, f := range lp.Files {
			if f.Doc != nil {
				pos := lp.Fset.Position(f.Doc.Pos())
				rel, err := filepath.Rel(root, pos.Filename)
				if err != nil {
					t.Fatal(err)
				}
				docs[rel] = strings.Repeat("\n", pos.Line-1) + f.Doc.Text()
			}
		}
	}
	for name, text := range docs {
		for id, line := range docIdentifiers(text) {
			if !d.resolves(id) {
				t.Errorf("%s:%d: `%s` names nothing in the module", name, line, id)
			}
		}
	}
}
