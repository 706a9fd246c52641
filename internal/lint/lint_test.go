package lint_test

import (
	"go/token"
	"go/types"
	"os"
	"path/filepath"
	"regexp"
	"sort"
	"strings"
	"sync"
	"testing"

	"repro/internal/lint"
)

// stdlib packages the testdata imports, resolved to export data once
// per test binary via `go list -export`.
var stdPackages = []string{
	"context", "crypto/rand", "errors", "fmt", "math/rand",
	"sort", "strings", "sync", "sync/atomic", "time",
}

var (
	stdOnce sync.Once
	stdImp  types.Importer
	stdFset *token.FileSet
	stdErr  error
)

// stdImporter builds a shared importer over stdlib export data.
func stdImporter(t *testing.T) (*token.FileSet, types.Importer) {
	t.Helper()
	stdOnce.Do(func() {
		pkgs, err := lint.GoList(".", stdPackages...)
		if err != nil {
			stdErr = err
			return
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
		stdFset = token.NewFileSet()
		stdImp = lint.NewExportImporter(stdFset, exports, importMap)
	})
	if stdErr != nil {
		t.Fatalf("loading stdlib export data: %v", stdErr)
	}
	return stdFset, stdImp
}

// testImporter resolves testdata/src packages from source and
// everything else from stdlib export data.
type testImporter struct {
	fset   *token.FileSet
	std    types.Importer
	srcDir string
	cache  map[string]*lint.LoadedPackage
}

func newTestImporter(t *testing.T) *testImporter {
	fset, std := stdImporter(t)
	return &testImporter{
		fset:   fset,
		std:    std,
		srcDir: filepath.Join("testdata", "src"),
		cache:  map[string]*lint.LoadedPackage{},
	}
}

// Import implements types.Importer.
func (ti *testImporter) Import(path string) (*types.Package, error) {
	lp, err := ti.load(path)
	if err != nil {
		return nil, err
	}
	if lp != nil {
		return lp.Pkg, nil
	}
	return ti.std.Import(path)
}

// load type-checks a testdata package, or returns (nil, nil) for paths
// outside testdata/src.
func (ti *testImporter) load(path string) (*lint.LoadedPackage, error) {
	if lp, ok := ti.cache[path]; ok {
		return lp, nil
	}
	dir := filepath.Join(ti.srcDir, path)
	if fi, err := os.Stat(dir); err != nil || !fi.IsDir() {
		return nil, nil
	}
	files, err := filepath.Glob(filepath.Join(dir, "*.go"))
	if err != nil {
		return nil, err
	}
	sort.Strings(files)
	lp, err := lint.TypeCheck(ti.fset, path, files, ti)
	if err != nil {
		return nil, err
	}
	ti.cache[path] = lp
	return lp, nil
}

// goldenConfig scopes the analyzers to the testdata packages.
func goldenConfig() *lint.Config {
	return &lint.Config{
		DeterministicPkgs: []string{"determ"},
		SinkPkg:           "pipeline",
		Pools: []lint.PoolPair{{
			Acquire: "owner.Acquire",
			Release: "owner.Release",
		}},
	}
}

// want is one expectation parsed from a `// want "regexp"` comment.
type want struct {
	re      *regexp.Regexp
	raw     string
	matched bool
}

var wantLineRe = regexp.MustCompile(`// want ((?:"(?:[^"\\]|\\.)*"\s*)+)`)
var wantArgRe = regexp.MustCompile(`"((?:[^"\\]|\\.)*)"`)

// parseWants scans a source file for expectations, keyed by line.
func parseWants(t *testing.T, filename string) map[int][]*want {
	t.Helper()
	data, err := os.ReadFile(filename)
	if err != nil {
		t.Fatalf("reading %s: %v", filename, err)
	}
	wants := map[int][]*want{}
	for i, line := range strings.Split(string(data), "\n") {
		m := wantLineRe.FindStringSubmatch(line)
		if m == nil {
			continue
		}
		for _, arg := range wantArgRe.FindAllStringSubmatch(m[1], -1) {
			re, err := regexp.Compile(arg[1])
			if err != nil {
				t.Fatalf("%s:%d: bad want regexp %q: %v", filename, i+1, arg[1], err)
			}
			wants[i+1] = append(wants[i+1], &want{re: re, raw: arg[1]})
		}
	}
	return wants
}

// runGolden analyzes one testdata package and diffs diagnostics against
// its `// want` expectations.
func runGolden(t *testing.T, pkgPath string) {
	t.Helper()
	ti := newTestImporter(t)
	lp, err := ti.load(pkgPath)
	if err != nil {
		t.Fatalf("loading %s: %v", pkgPath, err)
	}
	if lp == nil {
		t.Fatalf("testdata package %s not found", pkgPath)
	}
	cfg := goldenConfig()
	diags, err := lint.RunAnalyzers(lint.Analyzers(cfg), lp.Fset, lp.Files, lp.Pkg, lp.Info, cfg)
	if err != nil {
		t.Fatalf("running analyzers on %s: %v", pkgPath, err)
	}
	checkWants(t, lp, diags)
}

// checkWants diffs diagnostics against the package's `// want`
// expectations.
func checkWants(t *testing.T, lp *lint.LoadedPackage, diags []lint.Diagnostic) {
	t.Helper()
	wantsByFile := map[string]map[int][]*want{}
	for _, f := range lp.Files {
		name := lp.Fset.Position(f.Pos()).Filename
		wantsByFile[name] = parseWants(t, name)
	}

	for _, d := range diags {
		lineWants := wantsByFile[d.Pos.Filename][d.Pos.Line]
		found := false
		for _, w := range lineWants {
			if !w.matched && w.re.MatchString(d.Message) {
				w.matched = true
				found = true
				break
			}
		}
		if !found {
			t.Errorf("unexpected diagnostic at %s: %s: %s", d.Pos, d.Analyzer, d.Message)
		}
	}
	for file, byLine := range wantsByFile {
		for line, ws := range byLine {
			for _, w := range ws {
				if !w.matched {
					t.Errorf("%s:%d: expected diagnostic matching %q, got none", file, line, w.raw)
				}
			}
		}
	}
}

func TestGoldenDeterminism(t *testing.T)      { runGolden(t, "determ") }
func TestGoldenOrderOnly(t *testing.T)        { runGolden(t, "orderonly") }
func TestGoldenCacheOwner(t *testing.T)       { runGolden(t, "owner") }
func TestGoldenHotPath(t *testing.T)          { runGolden(t, "hot") }
func TestGoldenHotPathTelemetry(t *testing.T) { runGolden(t, "hottel") }
func TestGoldenSinkPkg(t *testing.T)          { runGolden(t, "pipeline") }
func TestGoldenSinkProducer(t *testing.T)     { runGolden(t, "producer") }

// TestRepositoryIsClean is the in-process version of the CI studyvet
// gate: the four analyzers over every package of the module and of the
// benchmark module must report nothing. It doubles as an integration
// test of the go list loader.
func TestRepositoryIsClean(t *testing.T) {
	if testing.Short() {
		t.Skip("loads and type-checks the whole module")
	}
	pkgs := repoPackages(t)
	if len(pkgs) < 10 {
		t.Fatalf("loaded only %d packages, expected the whole module", len(pkgs))
	}
	cfg := lint.DefaultConfig()
	analyzers := lint.Analyzers(cfg)
	for _, lp := range pkgs {
		diags, err := lint.RunAnalyzers(analyzers, lp.Fset, lp.Files, lp.Pkg, lp.Info, cfg)
		if err != nil {
			t.Fatalf("%s: %v", lp.Path, err)
		}
		for _, d := range diags {
			t.Errorf("%s: %s: %s", d.Pos, d.Analyzer, d.Message)
		}
	}
}
