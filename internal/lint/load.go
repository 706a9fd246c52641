package lint

import (
	"bytes"
	"encoding/json"
	"fmt"
	"go/ast"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"io"
	"os"
	"os/exec"
	"path/filepath"
)

// LoadedPackage is one parsed and type-checked package ready for
// analysis.
type LoadedPackage struct {
	Path  string
	Fset  *token.FileSet
	Files []*ast.File
	Pkg   *types.Package
	Info  *types.Info
}

// newInfo allocates the types.Info maps the analyzers rely on.
func newInfo() *types.Info {
	return &types.Info{
		Types:      map[ast.Expr]types.TypeAndValue{},
		Defs:       map[*ast.Ident]types.Object{},
		Uses:       map[*ast.Ident]types.Object{},
		Selections: map[*ast.SelectorExpr]*types.Selection{},
		Implicits:  map[ast.Node]types.Object{},
		Scopes:     map[ast.Node]*types.Scope{},
		Instances:  map[*ast.Ident]types.Instance{},
	}
}

// TypeCheck parses and type-checks one package from explicit file
// paths, resolving imports through imp.
func TypeCheck(fset *token.FileSet, path string, goFiles []string, imp types.Importer) (*LoadedPackage, error) {
	var files []*ast.File
	for _, name := range goFiles {
		f, err := parser.ParseFile(fset, name, nil, parser.ParseComments|parser.SkipObjectResolution)
		if err != nil {
			return nil, err
		}
		files = append(files, f)
	}
	info := newInfo()
	conf := types.Config{
		Importer: imp,
		Sizes:    types.SizesFor("gc", "amd64"),
	}
	pkg, err := conf.Check(path, fset, files, info)
	if err != nil {
		return nil, fmt.Errorf("type-checking %s: %w", path, err)
	}
	return &LoadedPackage{Path: path, Fset: fset, Files: files, Pkg: pkg, Info: info}, nil
}

// --- go list -export based loading (standalone studyvet + tests) ---

// listPackage is the subset of `go list -json` output the loader uses.
type listPackage struct {
	ImportPath string
	Dir        string
	Export     string
	Standard   bool
	GoFiles    []string
	CgoFiles   []string
	Module     *struct{ Path string }
	ImportMap  map[string]string
	DepOnly    bool
	Incomplete bool
	Error      *struct{ Err string }
}

// GoList runs `go list -export -json -deps` over the patterns and
// returns every resolved package. Export data for all dependencies is
// produced by the go command's build cache, so type-checking needs no
// network and no GOPATH trees.
func GoList(dir string, patterns ...string) ([]*listPackage, error) {
	args := append([]string{"list", "-export", "-json", "-deps", "--"}, patterns...)
	cmd := exec.Command("go", args...)
	cmd.Dir = dir
	var stderr bytes.Buffer
	cmd.Stderr = &stderr
	out, err := cmd.Output()
	if err != nil {
		return nil, fmt.Errorf("go list: %v\n%s", err, stderr.String())
	}
	var pkgs []*listPackage
	dec := json.NewDecoder(bytes.NewReader(out))
	for {
		var p listPackage
		if err := dec.Decode(&p); err == io.EOF {
			break
		} else if err != nil {
			return nil, fmt.Errorf("go list output: %w", err)
		}
		pkgs = append(pkgs, &p)
	}
	return pkgs, nil
}

// ExportImporter resolves imports from compiler export data files, the
// same artifacts `go vet` hands a vettool via vet.cfg's PackageFile.
type ExportImporter struct {
	fset *token.FileSet
	// exports maps canonical import paths to export data files.
	exports map[string]string
	// importMap maps source-level paths to canonical ones (vendored
	// stdlib deps, test variants).
	importMap map[string]string
	gc        types.ImporterFrom
}

// NewExportImporter builds an importer over an explicit path→file map.
func NewExportImporter(fset *token.FileSet, exports, importMap map[string]string) *ExportImporter {
	ei := &ExportImporter{fset: fset, exports: exports, importMap: importMap}
	ei.gc = importer.ForCompiler(fset, "gc", ei.lookup).(types.ImporterFrom)
	return ei
}

func (ei *ExportImporter) lookup(path string) (io.ReadCloser, error) {
	if mapped, ok := ei.importMap[path]; ok {
		path = mapped
	}
	f, ok := ei.exports[path]
	if !ok {
		return nil, fmt.Errorf("no export data for %q", path)
	}
	return os.Open(f)
}

// Import implements types.Importer.
func (ei *ExportImporter) Import(path string) (*types.Package, error) {
	return ei.gc.Import(path)
}

// ImportFrom implements types.ImporterFrom.
func (ei *ExportImporter) ImportFrom(path, dir string, mode types.ImportMode) (*types.Package, error) {
	return ei.gc.ImportFrom(path, dir, mode)
}

// LoadPatterns loads every non-dependency module package matched by the
// patterns (the `go list` notion: packages listed on the command line,
// not pulled in via -deps) with full syntax, ready for analysis.
func LoadPatterns(dir string, patterns ...string) ([]*LoadedPackage, error) {
	pkgs, err := GoList(dir, patterns...)
	if err != nil {
		return nil, err
	}
	exports := map[string]string{}
	importMap := map[string]string{}
	for _, p := range pkgs {
		if p.Export != "" {
			exports[p.ImportPath] = p.Export
		}
		for src, canonical := range p.ImportMap {
			importMap[src] = canonical
		}
	}
	fset := token.NewFileSet()
	imp := NewExportImporter(fset, exports, importMap)
	var loaded []*LoadedPackage
	for _, p := range pkgs {
		if p.DepOnly || p.Standard || len(p.GoFiles) == 0 {
			continue
		}
		if p.Error != nil {
			return nil, fmt.Errorf("%s: %s", p.ImportPath, p.Error.Err)
		}
		if len(p.CgoFiles) > 0 {
			continue // cgo sources need the generated intermediates
		}
		var files []string
		for _, f := range p.GoFiles {
			files = append(files, filepath.Join(p.Dir, f))
		}
		lp, err := TypeCheck(fset, p.ImportPath, files, imp)
		if err != nil {
			return nil, err
		}
		loaded = append(loaded, lp)
	}
	return loaded, nil
}
