// Package lint is studyvet's analysis framework: a small, stdlib-only
// reimplementation of the golang.org/x/tools/go/analysis model (the
// container bakes in no external modules) plus the four analyzers that
// statically enforce the campaign's determinism, ownership and hot-path
// invariants. DESIGN.md §6 maps each analyzer to the DESIGN/ROADMAP
// rule it guards and documents the //studyvet: directive syntax.
//
// The analyzers are config-driven: a package allowlist scopes the
// entropy/clock rules to the deterministic path, and //studyvet:
// directives in source annotate owned cache fields, hot-path functions
// and sanctioned exemptions. Test files (*_test.go) are never
// reported on — tests legitimately use clocks, entropy and fmt.
package lint

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"sort"
	"strings"
)

// Analyzer is one named static check.
type Analyzer struct {
	Name string
	Doc  string
	Run  func(*Pass) error
}

// Diagnostic is one reported finding.
type Diagnostic struct {
	Analyzer string
	Pos      token.Position
	Message  string
}

func (d Diagnostic) String() string {
	return fmt.Sprintf("%s: %s (%s)", d.Pos, d.Message, d.Analyzer)
}

// Pass carries one package's parsed and type-checked state through an
// analyzer run.
type Pass struct {
	Analyzer  *Analyzer
	Fset      *token.FileSet
	Files     []*ast.File
	Pkg       *types.Package
	TypesInfo *types.Info
	Config    *Config

	directives *directiveIndex
	report     func(Diagnostic)
}

// Reportf records a diagnostic at pos. Findings in *_test.go files are
// dropped: the invariants guard production paths, and tests exercise
// nondeterminism on purpose.
func (p *Pass) Reportf(pos token.Pos, format string, args ...any) {
	position := p.Fset.Position(pos)
	if strings.HasSuffix(position.Filename, "_test.go") {
		return
	}
	p.report(Diagnostic{
		Analyzer: p.Analyzer.Name,
		Pos:      position,
		Message:  fmt.Sprintf(format, args...),
	})
}

// PoolPair names an acquire/release pair whose calls must balance on
// every return path of a function (cacheowner's pool rule).
type PoolPair struct {
	// Acquire and Release are full function names as reported by
	// types.Func.FullName, e.g. "repro/internal/uatypes.AcquireEncoder".
	Acquire string
	Release string
}

// Config scopes the analyzers. The zero value checks nothing
// path-dependent; cmd/studyvet uses DefaultConfig, the golden tests
// build configs pointing into testdata.
type Config struct {
	// DeterministicPkgs lists package paths where the determinism
	// analyzer's entropy and clock rules apply (the deterministic path:
	// everything that feeds byte-identical datasets). The map-iteration
	// order rule applies to every analyzed package regardless.
	DeterministicPkgs []string
	// EpochVars are fully qualified variables sanctioned as the
	// deterministic path's only clock (e.g. "repro/internal/uarsa.Epoch").
	EpochVars []string
	// SinkPkg is the import path of the record-pipeline package defining
	// RecordSink (sinkctx's subject).
	SinkPkg string
	// Pools lists acquire/release pairs checked for balance.
	Pools []PoolPair
}

// DefaultConfig returns the repository's production configuration.
func DefaultConfig() *Config {
	return &Config{
		DeterministicPkgs: []string{
			"repro/internal/deploy",
			"repro/internal/uarsa",
			"repro/internal/uasc",
			"repro/internal/uapolicy",
			"repro/internal/uacert",
			"repro/internal/uatypes",
			"repro/internal/scanner",
			"repro/internal/pipeline",
			"repro/internal/dataset",
			"repro/internal/worldview",
			// The telemetry registry sits on the deterministic path's
			// packages; its one sanctioned wall-clock read (NowNs) carries
			// an entropy-exempt directive, everything else must stay clean.
			"repro/internal/telemetry",
			// The shard fabric's retry jitter must replay from its seed
			// and its deadlines and heartbeat gaps read the wall only
			// through telemetry.NowNs, so the transport obeys the same
			// entropy and clock rules as the record path it carries.
			"repro/internal/fabric",
			// Chaos behaviors are pure functions of (seed, wave, addr):
			// any ambient entropy or clock in the decision path would
			// break the chaos byte-identity gates. (Serve's tarpit
			// pacing sleeps on the wire path, which is time.Sleep only —
			// no clock reads feed decisions.)
			"repro/internal/chaos",
			// Retry backoff must replay from its seed alone.
			"repro/internal/backoff",
			// Wave fingerprints justify skipping grabs: any entropy or
			// clock feeding a fingerprint would desynchronize the
			// skip/clone decisions of sharded delta workers and break the
			// delta byte-identity gate.
			"repro/internal/wavediff",
			// Fingerprints and Hellos carry the study: nothing ambient may.
			"repro/internal/study",
			// Every record is read off a simulated connection, whose
			// deadlines run on a virtual timeline. Its one wall-clock
			// read is the clock of a real connection (a nil Timeline)
			// and carries an entropy-exempt directive; anything else
			// would be entropy under the whole dataset.
			"repro/internal/memconn",
			// The universe, noise and AS model every dataset depends on.
			"repro/internal/simnet",
		},
		EpochVars: []string{"repro/internal/uarsa.Epoch"},
		SinkPkg:   "repro/internal/pipeline",
		Pools: []PoolPair{{
			Acquire: "repro/internal/uatypes.AcquireEncoder",
			Release: "repro/internal/uatypes.ReleaseEncoder",
		}},
	}
}

// Analyzers returns the four studyvet analyzers bound to cfg.
func Analyzers(cfg *Config) []*Analyzer {
	return []*Analyzer{
		DeterminismAnalyzer(cfg),
		CacheOwnerAnalyzer(cfg),
		HotPathAnalyzer(cfg),
		SinkCtxAnalyzer(cfg),
	}
}

// RunAnalyzers runs every analyzer over one loaded package and returns
// the diagnostics sorted by position.
func RunAnalyzers(analyzers []*Analyzer, fset *token.FileSet, files []*ast.File,
	pkg *types.Package, info *types.Info, cfg *Config) ([]Diagnostic, error) {

	var diags []Diagnostic
	idx := indexDirectives(fset, files)
	for _, a := range analyzers {
		pass := &Pass{
			Analyzer:   a,
			Fset:       fset,
			Files:      files,
			Pkg:        pkg,
			TypesInfo:  info,
			Config:     cfg,
			directives: idx,
			report:     func(d Diagnostic) { diags = append(diags, d) },
		}
		if err := a.Run(pass); err != nil {
			return nil, fmt.Errorf("%s: %w", a.Name, err)
		}
	}
	sort.Slice(diags, func(i, j int) bool {
		a, b := diags[i], diags[j]
		if a.Pos.Filename != b.Pos.Filename {
			return a.Pos.Filename < b.Pos.Filename
		}
		if a.Pos.Line != b.Pos.Line {
			return a.Pos.Line < b.Pos.Line
		}
		if a.Pos.Column != b.Pos.Column {
			return a.Pos.Column < b.Pos.Column
		}
		return a.Message < b.Message
	})
	return diags, nil
}

// --- shared type/AST helpers ---

// useObj resolves the object an identifier or selector refers to.
func (p *Pass) useObj(e ast.Expr) types.Object {
	switch e := e.(type) {
	case *ast.Ident:
		return p.TypesInfo.Uses[e]
	case *ast.SelectorExpr:
		return p.TypesInfo.Uses[e.Sel]
	}
	return nil
}

// pkgFunc reports whether e refers to a package-level function or
// variable of the given package path, returning its name.
func (p *Pass) pkgFunc(e ast.Expr, pkgPath string) (string, bool) {
	obj := p.useObj(e)
	if obj == nil || obj.Pkg() == nil || obj.Pkg().Path() != pkgPath {
		return "", false
	}
	if f, ok := obj.(*types.Func); ok {
		if sig, ok := f.Type().(*types.Signature); ok && sig.Recv() != nil {
			return "", false // method, not a package-level func
		}
	}
	return obj.Name(), true
}

// fullName returns types.Func.FullName for function objects, or
// pkgpath.Name for other package-level objects.
func fullName(obj types.Object) string {
	if f, ok := obj.(*types.Func); ok {
		return f.FullName()
	}
	if obj.Pkg() != nil {
		return obj.Pkg().Path() + "." + obj.Name()
	}
	return obj.Name()
}

// receiverNamed returns the named type of a method's receiver (through
// one pointer), or nil.
func receiverNamed(info *types.Info, fd *ast.FuncDecl) *types.Named {
	if fd.Recv == nil || len(fd.Recv.List) == 0 {
		return nil
	}
	def, ok := info.Defs[fd.Name].(*types.Func)
	if !ok {
		return nil
	}
	sig := def.Type().(*types.Signature)
	if sig.Recv() == nil {
		return nil
	}
	t := sig.Recv().Type()
	if ptr, ok := t.(*types.Pointer); ok {
		t = ptr.Elem()
	}
	named, _ := t.(*types.Named)
	return named
}
