package lint

import (
	"go/ast"
	"go/types"
	"strings"
)

// GoLeak guards goroutine lifecycles on the serve path: every `go` statement
// in the module's serving packages must have a provable shutdown path, so a
// cancelled ServeUDP or a drained NIC leaves no background work running; a
// leak is invisible to `go build` and only sometimes visible to tests. A
// spawn passes when the spawned body (the literal, or the in-package named
// function's) receives on or ranges over a channel (ctx.Done(), a done
// channel, a work queue whose close is the signal), calls wg.Done() where
// the spawn site arms wg.Add, or hands a context.Context to a callee (`go
// func() { done <- n.ServeUDP(ctx, pc) }()`). Anything else, including a
// spawn the analyzer cannot resolve in the package, needs a reasoned
// //lint:allow goleak.
func GoLeak() *Analyzer {
	return &Analyzer{
		Name: "goleak",
		Doc:  "flags go statements with no provable shutdown path (ctx.Done, done channel, or WaitGroup)",
		Match: func(pkgPath string) bool {
			return pkgPath == ModulePath ||
				underInternal(pkgPath, ModulePath) ||
				strings.HasPrefix(pkgPath, ModulePath+"/cmd/")
		},
		Run: runGoLeak,
	}
}

func runGoLeak(p *Package) []Diagnostic {
	funcs, byObj := collectFuncs(p)
	var diags []Diagnostic
	for _, fd := range funcs {
		if fd.Body == nil {
			continue
		}
		// addsWaitGroup: the spawn-site function arms a WaitGroup, the
		// second half of the wg.Add / go ... wg.Done() tracking pattern.
		addsWaitGroup := false
		ast.Inspect(fd.Body, func(n ast.Node) bool {
			if call, ok := n.(*ast.CallExpr); ok && isWaitGroupCall(p, call, "Add") {
				addsWaitGroup = true
			}
			return true
		})
		ast.Inspect(fd.Body, func(n ast.Node) bool {
			gs, ok := n.(*ast.GoStmt)
			if !ok {
				return true
			}
			body, resolved := spawnedBody(p, byObj, gs.Call)
			if !resolved {
				diags = append(diags, diag(p, gs, "goleak",
					"go statement spawns a function the analyzer cannot resolve in this package; prove its shutdown path or annotate //lint:allow goleak <reason>"))
				return true
			}
			ev := shutdownEvidence(p, body, gs.Call)
			switch {
			case ev == evNone:
				diags = append(diags, diag(p, gs, "goleak",
					"goroutine has no provable shutdown path: select on ctx.Done() or a done channel, track it with a sync.WaitGroup, or annotate //lint:allow goleak <reason>"))
			case ev == evWaitGroup && !addsWaitGroup:
				diags = append(diags, diag(p, gs, "goleak",
					"goroutine calls WaitGroup.Done but the spawn site never calls Add; the tracking is unfenced — arm wg.Add before the go statement"))
			}
			return true
		})
	}
	return diags
}

// evidence classifies the strongest shutdown signal found in a spawned body.
type evidence int

const (
	evNone evidence = iota
	// evWaitGroup is Done-side tracking; it only counts when the spawn site
	// arms the Add side.
	evWaitGroup
	// evSignal is direct cancellation: a channel receive/range, ctx.Done(),
	// or a context handed to a callee.
	evSignal
)

// spawnedBody resolves the function body a go statement runs: a literal's
// own body, or the body of an in-package named function or method.
func spawnedBody(p *Package, byObj map[types.Object]*ast.FuncDecl, call *ast.CallExpr) (*ast.BlockStmt, bool) {
	switch fun := ast.Unparen(call.Fun).(type) {
	case *ast.FuncLit:
		return fun.Body, true
	case *ast.Ident:
		if fd, ok := byObj[p.Info.Uses[fun]]; ok && fd.Body != nil {
			return fd.Body, true
		}
	case *ast.SelectorExpr:
		if fd, ok := byObj[p.Info.Uses[fun.Sel]]; ok && fd.Body != nil {
			return fd.Body, true
		}
	}
	return nil, false
}

// shutdownEvidence scans a spawned body (and the spawn call's own arguments)
// for the strongest shutdown signal.
func shutdownEvidence(p *Package, body *ast.BlockStmt, call *ast.CallExpr) evidence {
	best := evNone
	note := func(e evidence) {
		if e > best {
			best = e
		}
	}
	// A context passed into the spawned function is the callee-contract
	// case: `go n.serve(ctx)` is bounded by whatever bounds ctx.
	for _, arg := range call.Args {
		if isContextExpr(p, arg) {
			note(evSignal)
		}
	}
	ast.Inspect(body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.UnaryExpr:
			if n.Op.String() == "<-" {
				note(evSignal)
			}
		case *ast.RangeStmt:
			if tv, ok := p.Info.Types[n.X]; ok {
				if _, isChan := tv.Type.Underlying().(*types.Chan); isChan {
					note(evSignal)
				}
			}
		case *ast.CallExpr:
			if sel, ok := n.Fun.(*ast.SelectorExpr); ok && sel.Sel.Name == "Done" && isContextExpr(p, sel.X) {
				note(evSignal)
			}
			if isWaitGroupCall(p, n, "Done") {
				note(evWaitGroup)
			}
			for _, arg := range n.Args {
				if isContextExpr(p, arg) {
					note(evSignal)
				}
			}
		}
		return true
	})
	return best
}

// isContextExpr reports whether an expression's static type is
// context.Context.
func isContextExpr(p *Package, e ast.Expr) bool {
	tv, ok := p.Info.Types[e]
	return ok && isContextType(tv.Type)
}

// isWaitGroupCall reports whether call is X.<method>() on a sync.WaitGroup.
func isWaitGroupCall(p *Package, call *ast.CallExpr, method string) bool {
	sel, ok := call.Fun.(*ast.SelectorExpr)
	if !ok || sel.Sel.Name != method {
		return false
	}
	tv, ok := p.Info.Types[sel.X]
	return ok && isNamed(tv.Type, "sync", "WaitGroup")
}
