package lint

import (
	"go/ast"
	"go/token"
	"go/types"
)

// HotPathAnalyzer turns the AllocsPerRun budget tests' after-the-fact
// gate into a compile-time diagnostic: functions marked
// //studyvet:hotpath (the sweep's Permutation.Index, codec encode, uasc seal)
// reject constructs that allocate on the steady-state path:
//
//   - any fmt.* call (Errorf/Sprintf allocate even before formatting);
//   - string concatenation inside a loop (quadratic garbage);
//   - function literals (a closure allocates per evaluation);
//   - passing a non-pointer struct or array into an interface-typed
//     parameter (boxing allocates).
//
// //studyvet:alloc-ok on a statement's line (or the line above)
// sanctions constructs that only run on failure paths — an error
// return may allocate, the steady state may not.
func HotPathAnalyzer(cfg *Config) *Analyzer {
	a := &Analyzer{
		Name: "hotpath",
		Doc:  "reject allocating constructs inside //studyvet:hotpath functions",
	}
	a.Run = func(pass *Pass) error {
		for _, file := range pass.Files {
			for _, decl := range file.Decls {
				fd, ok := decl.(*ast.FuncDecl)
				if !ok || fd.Body == nil || !pass.FuncDirective(fd, DirHotPath) {
					continue
				}
				checkHotPath(pass, fd)
			}
		}
		return nil
	}
	return a
}

func checkHotPath(pass *Pass, fd *ast.FuncDecl) {
	var walk func(n ast.Node, loopDepth int)
	walk = func(root ast.Node, loopDepth int) {
		ast.Inspect(root, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.ForStmt:
				if n != root {
					walkParts(n, func(child ast.Node) { walk(child, loopDepth+1) },
						n.Init, n.Cond, n.Post, n.Body)
					return false
				}
			case *ast.RangeStmt:
				if n != root {
					walkParts(n, func(child ast.Node) { walk(child, loopDepth+1) },
						n.X, n.Body)
					return false
				}
			case *ast.FuncLit:
				if !pass.ExemptAt(n.Pos(), DirAllocOK) {
					pass.Reportf(n.Pos(), "closure in hot path %s allocates per evaluation (//studyvet:alloc-ok to sanction)", fd.Name.Name)
				}
				// Keep walking: the closure body is still hot.
			case *ast.BinaryExpr:
				if loopDepth > 0 && n.Op == token.ADD && isStringType(pass.TypesInfo.TypeOf(n)) &&
					!pass.ExemptAt(n.Pos(), DirAllocOK) {
					pass.Reportf(n.Pos(), "string concatenation in a loop inside hot path %s allocates per iteration: use a pooled buffer or append", fd.Name.Name)
				}
			case *ast.AssignStmt:
				if loopDepth > 0 && n.Tok == token.ADD_ASSIGN && len(n.Lhs) == 1 &&
					isStringType(pass.TypesInfo.TypeOf(n.Lhs[0])) &&
					!pass.ExemptAt(n.Pos(), DirAllocOK) {
					pass.Reportf(n.Pos(), "string += in a loop inside hot path %s allocates per iteration: use a pooled buffer or append", fd.Name.Name)
				}
			case *ast.CallExpr:
				checkHotCall(pass, fd, n)
			}
			return true
		})
	}
	walk(fd.Body, 0)
}

// walkParts visits non-nil children with the provided walker.
func walkParts(_ ast.Node, walk func(ast.Node), parts ...ast.Node) {
	for _, p := range parts {
		switch v := p.(type) {
		case nil:
		case ast.Expr:
			if v != nil {
				walk(v)
			}
		case ast.Stmt:
			if v != nil {
				walk(v)
			}
		default:
			walk(p)
		}
	}
}

func checkHotCall(pass *Pass, fd *ast.FuncDecl, call *ast.CallExpr) {
	if obj := pass.useObj(call.Fun); obj != nil && obj.Pkg() != nil && obj.Pkg().Path() == "fmt" {
		if !pass.ExemptAt(call.Pos(), DirAllocOK) {
			pass.Reportf(call.Pos(), "fmt.%s in hot path %s allocates (//studyvet:alloc-ok to sanction failure-path formatting)",
				obj.Name(), fd.Name.Name)
		}
		return
	}

	// Interface boxing: a non-pointer struct/array argument passed into
	// an interface-typed parameter is heap-boxed per call.
	sig := callSignature(pass, call)
	if sig == nil {
		return
	}
	np := sig.Params().Len()
	for i, arg := range call.Args {
		var param types.Type
		switch {
		case sig.Variadic() && i >= np-1:
			last := sig.Params().At(np - 1).Type()
			slice, ok := last.(*types.Slice)
			if !ok {
				continue
			}
			if call.Ellipsis != token.NoPos && i == np-1 {
				continue // passing a slice through, no boxing
			}
			param = slice.Elem()
		case i < np:
			param = sig.Params().At(i).Type()
		default:
			continue
		}
		if _, isTP := param.(*types.TypeParam); isTP {
			continue
		}
		if !types.IsInterface(param) {
			continue
		}
		argType := pass.TypesInfo.TypeOf(arg)
		if argType == nil {
			continue
		}
		switch argType.Underlying().(type) {
		case *types.Struct, *types.Array:
			if !pass.ExemptAt(arg.Pos(), DirAllocOK) && !pass.ExemptAt(call.Pos(), DirAllocOK) {
				pass.Reportf(arg.Pos(), "%s boxes a %s value into an interface in hot path %s: pass a pointer (//studyvet:alloc-ok to sanction)",
					exprString(arg), argType.String(), fd.Name.Name)
			}
		}
	}
}

func callSignature(pass *Pass, call *ast.CallExpr) *types.Signature {
	t := pass.TypesInfo.TypeOf(call.Fun)
	if t == nil {
		return nil
	}
	sig, _ := t.Underlying().(*types.Signature)
	return sig
}

func isStringType(t types.Type) bool {
	if t == nil {
		return false
	}
	b, ok := t.Underlying().(*types.Basic)
	return ok && b.Info()&types.IsString != 0
}
