package lint

import (
	"go/ast"
	"go/types"
)

// SinkCtxAnalyzer enforces the record pipeline's cancellation contract
// (DESIGN.md §5): every RecordSink producer — a function outside the
// pipeline package that calls Put on a sink — must take a
// context.Context and be cancellation-aware: check ctx.Err()/ctx.Done()
// or propagate ctx into a callee before producing. A Put may block (the
// fabric's NetSink writes to TCP), so a producer that cannot be
// cancelled wedges the campaign's shutdown path behind a stalled peer.
// //studyvet:sink-exempt sanctions deliberate synchronous replay (e.g.
// WriteDataset's in-memory re-encode).
func SinkCtxAnalyzer(cfg *Config) *Analyzer {
	a := &Analyzer{
		Name: "sinkctx",
		Doc:  "RecordSink producers propagate context and check cancellation",
	}
	a.Run = func(pass *Pass) error {
		if cfg.SinkPkg == "" || pass.Pkg.Path() == cfg.SinkPkg {
			return nil // sinks forwarding to sinks are the pipeline, not producers
		}
		sinkIface := lookupSinkIface(pass, cfg.SinkPkg)
		if sinkIface == nil {
			return nil // package does not import the pipeline
		}
		for _, file := range pass.Files {
			for _, decl := range file.Decls {
				if fd, ok := decl.(*ast.FuncDecl); ok && fd.Body != nil {
					checkProducer(pass, fd, sinkIface)
				}
			}
		}
		return nil
	}
	return a
}

// lookupSinkIface resolves pipeline.RecordSink from the analyzed
// package's imports.
func lookupSinkIface(pass *Pass, sinkPkg string) *types.Interface {
	for _, imp := range pass.Pkg.Imports() {
		if imp.Path() != sinkPkg {
			continue
		}
		if obj := imp.Scope().Lookup("RecordSink"); obj != nil {
			iface, _ := obj.Type().Underlying().(*types.Interface)
			return iface
		}
	}
	return nil
}

// checkProducer flags Put calls on RecordSink-typed values from
// functions that do not take and use a context.
func checkProducer(pass *Pass, fd *ast.FuncDecl, sinkIface *types.Interface) {
	// Sinks wrapping sinks (a Tee-alike forwarding Put from its own Put)
	// are part of the pipeline, not producers.
	if recv := receiverNamed(pass.TypesInfo, fd); recv != nil &&
		(fd.Name.Name == "Put" || fd.Name.Name == "Close") &&
		implementsSink(recv, sinkIface) {
		return
	}
	var puts []*ast.CallExpr
	ast.Inspect(fd.Body, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		sel, ok := call.Fun.(*ast.SelectorExpr)
		if !ok || sel.Sel.Name != "Put" {
			return true
		}
		recvT := pass.TypesInfo.TypeOf(sel.X)
		if recvT == nil || !implementsSink(recvT, sinkIface) {
			return true
		}
		puts = append(puts, call)
		return true
	})
	if len(puts) == 0 || pass.FuncDirective(fd, DirSinkExempt) {
		return
	}

	ctxVar := contextParam(pass, fd)
	if ctxVar == nil {
		pass.Reportf(puts[0].Pos(),
			"%s produces into a RecordSink but takes no context.Context: producers must be cancellable or a blocked Put wedges shutdown (//studyvet:sink-exempt to sanction)",
			fd.Name.Name)
		return
	}
	if !cancellationAware(pass, fd, ctxVar) {
		pass.Reportf(puts[0].Pos(),
			"%s produces into a RecordSink without consulting its context: check ctx.Err()/ctx.Done() or propagate ctx before producing",
			fd.Name.Name)
	}
}

func implementsSink(t types.Type, iface *types.Interface) bool {
	if types.Implements(t, iface) {
		return true
	}
	if _, ok := t.(*types.Pointer); !ok {
		if types.Implements(types.NewPointer(t), iface) {
			return true
		}
	}
	return false
}

// contextParam returns the first parameter of type context.Context.
func contextParam(pass *Pass, fd *ast.FuncDecl) *types.Var {
	def, ok := pass.TypesInfo.Defs[fd.Name].(*types.Func)
	if !ok {
		return nil
	}
	sig := def.Type().(*types.Signature)
	for i := 0; i < sig.Params().Len(); i++ {
		p := sig.Params().At(i)
		if named, ok := p.Type().(*types.Named); ok {
			if named.Obj().Pkg() != nil && named.Obj().Pkg().Path() == "context" &&
				named.Obj().Name() == "Context" {
				return p
			}
		}
	}
	return nil
}

// cancellationAware reports whether the function consults its context:
// a .Err()/.Done() selector on it, or passing it into any call
// (propagation — the callee honors the cancellation contract).
func cancellationAware(pass *Pass, fd *ast.FuncDecl, ctxVar *types.Var) bool {
	aware := false
	ast.Inspect(fd.Body, func(n ast.Node) bool {
		if aware {
			return false
		}
		switch n := n.(type) {
		case *ast.SelectorExpr:
			if id, ok := n.X.(*ast.Ident); ok && pass.TypesInfo.Uses[id] == ctxVar {
				switch n.Sel.Name {
				case "Err", "Done", "Deadline":
					aware = true
				}
			}
		case *ast.CallExpr:
			for _, arg := range n.Args {
				if id, ok := arg.(*ast.Ident); ok && pass.TypesInfo.Uses[id] == ctxVar {
					aware = true
				}
			}
		}
		return true
	})
	return aware
}
