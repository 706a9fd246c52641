package lint

import (
	"go/ast"
	"go/token"
	"go/types"
	"slices"
	"strings"
)

// DeterminismAnalyzer enforces the deterministic path's entropy, clock
// and iteration-order rules (DESIGN.md §4/§5: byte-identical datasets
// across waves, shards and processes).
//
// In packages listed in Config.DeterministicPkgs it forbids:
//
//   - any reference into crypto/rand (the stdlib's MaybeReadByte
//     defeated stream replay twice already, PRs 4–5);
//   - math/rand package-level functions (the global source; seeded
//     *rand.Rand values via rand.New are fine);
//   - time.Now, Since, Until, After, AfterFunc, NewTimer, NewTicker,
//     Tick and Sleep (functions only: t.After(u) reads no clock); times
//     come from the connection's clock (memconn.ClockOf) or uarsa.Epoch.
//
// In every analyzed package it flags range loops over maps whose body
// appends to a variable declared outside the loop or encodes into an
// output (Encode/Write/Put/Fprint calls) without a sort of the
// destination following the loop — the exact bug class that breaks
// byte-identical shard merges.
//
// Exemptions: //studyvet:entropy-exempt on the enclosing declaration
// for the entropy/clock rules; //studyvet:ordered on the range
// statement (or the enclosing function's doc) for the order rule.
func DeterminismAnalyzer(cfg *Config) *Analyzer {
	a := &Analyzer{
		Name: "determinism",
		Doc:  "forbid entropy, wall clocks and map-iteration order on the deterministic path",
	}
	a.Run = func(pass *Pass) error {
		deterministic := slices.Contains(cfg.DeterministicPkgs, pass.Pkg.Path())
		for _, file := range pass.Files {
			for _, decl := range file.Decls {
				runDeterminismDecl(pass, decl, deterministic)
			}
		}
		return nil
	}
	return a
}

func runDeterminismDecl(pass *Pass, decl ast.Decl, deterministic bool) {
	entropyExempt := !deterministic || declExempt(decl, DirEntropyExempt)

	// Entropy and clock rules: every use-reference in the declaration,
	// unless the enclosing func/var decl (or an inner function literal's
	// own line) is exempted.
	ast.Inspect(decl, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.FuncDecl:
			if pass.FuncDirective(n, DirEntropyExempt) {
				return false
			}
		case *ast.SelectorExpr:
			if !entropyExempt {
				checkEntropyUse(pass, n)
			}
		case *ast.RangeStmt:
			checkMapRangeOrder(pass, n, decl)
		}
		return true
	})
}

func checkEntropyUse(pass *Pass, sel *ast.SelectorExpr) {
	obj := pass.TypesInfo.Uses[sel.Sel]
	if obj == nil || obj.Pkg() == nil {
		return
	}
	if pass.ExemptAt(sel.Pos(), DirEntropyExempt) {
		return
	}
	switch obj.Pkg().Path() {
	case "crypto/rand":
		pass.Reportf(sel.Pos(),
			"crypto/rand.%s on the deterministic path: draw from a seeded uarsa stream instead (//studyvet:entropy-exempt to sanction)",
			obj.Name())
	case "math/rand", "math/rand/v2":
		f, ok := obj.(*types.Func)
		if !ok {
			return
		}
		if sig, ok := f.Type().(*types.Signature); !ok || sig.Recv() != nil {
			return // method on a seeded *rand.Rand: fine
		}
		if strings.HasPrefix(obj.Name(), "New") {
			return // constructing a seeded source is the sanctioned use
		}
		pass.Reportf(sel.Pos(),
			"math/rand.%s uses the global source on the deterministic path: use rand.New(rand.NewSource(seed))",
			obj.Name())
	case "time":
		switch name, _ := pass.pkgFunc(sel, "time"); name {
		case "Now", "Since", "Until", "After", "AfterFunc", "NewTimer", "NewTicker", "Tick", "Sleep":
			pass.Reportf(sel.Pos(),
				"time.%s on the deterministic path: read the connection's clock (memconn.ClockOf) or stamp uarsa.Epoch (//studyvet:entropy-exempt to sanction)",
				obj.Name())
		}
	}
}

// encodeMethods are method names that emit into an output stream; calls
// to them inside a map-range body leak iteration order into encoded
// bytes no matter what is sorted afterwards.
var encodeMethods = map[string]bool{
	"Encode": true, "EncodeTo": true, "Put": true,
	"Write": true, "WriteString": true,
	"Fprint": true, "Fprintf": true, "Fprintln": true,
}

func checkMapRangeOrder(pass *Pass, rng *ast.RangeStmt, decl ast.Decl) {
	t := pass.TypesInfo.TypeOf(rng.X)
	if t == nil {
		return
	}
	if ptr, ok := t.Underlying().(*types.Pointer); ok {
		t = ptr.Elem()
	}
	if _, ok := t.Underlying().(*types.Map); !ok {
		return
	}
	if pass.ExemptAt(rng.Pos(), DirOrdered) {
		return
	}
	if fd, ok := decl.(*ast.FuncDecl); ok && pass.FuncDirective(fd, DirOrdered) {
		return
	}

	// Collect order leaks in the body: appends to outer variables, and
	// encode calls.
	type appendLeak struct {
		pos  token.Pos
		dest ast.Expr // LHS being appended to
	}
	var appends []appendLeak
	ast.Inspect(rng.Body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.RangeStmt:
			// A nested map-range is checked on its own visit; a nested
			// slice-range body still leaks the outer map's order.
		case *ast.AssignStmt:
			for i, rhs := range n.Rhs {
				call, ok := rhs.(*ast.CallExpr)
				if !ok || !isBuiltin(pass, call.Fun, "append") || i >= len(n.Lhs) {
					continue
				}
				dest := n.Lhs[i]
				if declaredOutside(pass, dest, rng) {
					appends = append(appends, appendLeak{pos: n.Pos(), dest: dest})
				}
			}
		case *ast.CallExpr:
			sel, ok := n.Fun.(*ast.SelectorExpr)
			if !ok || !encodeMethods[sel.Sel.Name] {
				return true
			}
			obj := pass.TypesInfo.Uses[sel.Sel]
			if obj == nil {
				return true
			}
			if f, ok := obj.(*types.Func); ok {
				if sig, ok := f.Type().(*types.Signature); ok && sig.Recv() == nil && obj.Pkg() != nil && obj.Pkg().Path() != "fmt" {
					return true // package-level non-fmt call: not an output method
				}
			}
			pass.Reportf(n.Pos(),
				"%s inside a map range emits in nondeterministic iteration order: collect and sort keys first (//studyvet:ordered to sanction)",
				exprString(sel))
			return true
		}
		return true
	})

	for _, leak := range appends {
		if sortedAfter(pass, rng, leak.dest) {
			continue
		}
		pass.Reportf(leak.pos,
			"append to %s inside a map range without a following sort: iteration order leaks into the result (//studyvet:ordered to sanction)",
			exprString(leak.dest))
	}
}

// declaredOutside reports whether the expression's root object is
// declared outside the range statement (an outer accumulation target).
// Selector-based destinations (x.f) always count as outside.
func declaredOutside(pass *Pass, e ast.Expr, rng *ast.RangeStmt) bool {
	switch e := e.(type) {
	case *ast.Ident:
		obj := pass.TypesInfo.Uses[e]
		if obj == nil {
			obj = pass.TypesInfo.Defs[e]
		}
		if obj == nil {
			return false
		}
		return obj.Pos() < rng.Pos() || obj.Pos() > rng.End()
	case *ast.SelectorExpr, *ast.IndexExpr:
		return true
	}
	return false
}

// sortedAfter reports whether a sibling statement after the range loop
// sorts the destination: a call to sort.* or slices.Sort* whose first
// argument (or method receiver chain) mentions the same expression.
func sortedAfter(pass *Pass, rng *ast.RangeStmt, dest ast.Expr) bool {
	siblings := enclosingStmtList(pass, rng)
	destStr := exprString(dest)
	after := false
	for _, stmt := range siblings {
		if stmt == ast.Stmt(rng) {
			after = true
			continue
		}
		if !after {
			continue
		}
		found := false
		ast.Inspect(stmt, func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok {
				return true
			}
			sel, ok := call.Fun.(*ast.SelectorExpr)
			if !ok {
				return true
			}
			obj := pass.TypesInfo.Uses[sel.Sel]
			if obj == nil || obj.Pkg() == nil {
				return true
			}
			pkg := obj.Pkg().Path()
			if pkg != "sort" && pkg != "slices" {
				return true
			}
			if !strings.Contains(obj.Name(), "Sort") && !isSortName(obj.Name()) {
				return true
			}
			for _, arg := range call.Args {
				if strings.Contains(exprString(arg), destStr) {
					found = true
					return false
				}
			}
			return true
		})
		if found {
			return true
		}
	}
	return false
}

func isSortName(name string) bool {
	switch name {
	case "Strings", "Ints", "Float64s", "Slice", "SliceStable", "Stable":
		return true
	}
	return false
}

// enclosingStmtList finds the statement list (block, case clause or
// comm clause body) whose members include the target statement.
func enclosingStmtList(pass *Pass, target ast.Stmt) []ast.Stmt {
	var file *ast.File
	for _, f := range pass.Files {
		if f.Pos() <= target.Pos() && target.End() <= f.End() {
			file = f
			break
		}
	}
	if file == nil {
		return nil
	}
	var found []ast.Stmt
	contains := func(list []ast.Stmt) bool {
		for _, s := range list {
			if s == target {
				return true
			}
		}
		return false
	}
	ast.Inspect(file, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.BlockStmt:
			if contains(n.List) {
				found = n.List
			}
		case *ast.CaseClause:
			if contains(n.Body) {
				found = n.Body
			}
		case *ast.CommClause:
			if contains(n.Body) {
				found = n.Body
			}
		}
		return true
	})
	return found
}

func isBuiltin(pass *Pass, fun ast.Expr, name string) bool {
	id, ok := fun.(*ast.Ident)
	if !ok || id.Name != name {
		return false
	}
	_, isBuiltin := pass.TypesInfo.Uses[id].(*types.Builtin)
	return isBuiltin
}

func exprString(e ast.Expr) string {
	return types.ExprString(e)
}
