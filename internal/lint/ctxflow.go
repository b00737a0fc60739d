package lint

import (
	"go/ast"
	"go/types"
)

// CtxFlow guards context propagation on the serve path: a helper that
// substitutes context.Background() for the caller's context detaches the
// work shutdown most needs to bound (the admission queues and the drain path
// hang off the serve context). Two rules, scoped to the wire, front-door and
// load-generation packages and the serve/client/loadgen binaries:
//
//  1. No context.Background() or context.TODO() outside func main. A
//     detached context that is genuinely required (draining after the serve
//     context is cancelled) is spelled context.WithoutCancel(ctx), visibly.
//  2. A function that receives a context.Context hands it (or a
//     context.With* derivation) to every callee that accepts one.
func CtxFlow() *Analyzer {
	return &Analyzer{
		Name: "ctxflow",
		Doc:  "flags context.Background/TODO outside main and callees handed a context not derived from the caller's",
		Match: func(pkgPath string) bool {
			return pathIn(pkgPath, ModulePath, "",
				"internal/nic", "internal/frontdoor", "internal/loadgen",
				"cmd/lightning-serve", "cmd/lightning-client", "cmd/lightning-loadgen")
		},
		Run: runCtxFlow,
	}
}

func runCtxFlow(p *Package) []Diagnostic {
	var diags []Diagnostic
	funcs, _ := collectFuncs(p)
	for _, fd := range funcs {
		if fd.Body == nil {
			continue
		}
		isMain := p.Types.Name() == "main" && fd.Recv == nil && fd.Name.Name == "main"

		// derived holds the objects transitively rooted in this function's
		// context parameters: the parameters themselves, then every local
		// assigned from a derived context (ctx2 := ctx) or from a call that
		// consumes one (ctx2, cancel := context.WithTimeout(ctx, d)).
		derived := make(map[types.Object]bool)
		if fd.Type.Params != nil {
			for _, field := range fd.Type.Params.List {
				for _, name := range field.Names {
					if obj := p.Info.Defs[name]; obj != nil && isContextType(obj.Type()) {
						derived[obj] = true
					}
				}
			}
		}
		hasCtxParam := len(derived) > 0
		var exprDerived func(e ast.Expr) bool
		exprDerived = func(e ast.Expr) bool {
			switch e := ast.Unparen(e).(type) {
			case *ast.Ident:
				return derived[p.Info.Uses[e]]
			case *ast.CallExpr:
				// context.WithTimeout(context.WithoutCancel(ctx), d) and
				// friends: a call consuming a derived context anywhere in its
				// arguments yields a derived context.
				for _, arg := range e.Args {
					if exprDerived(arg) {
						return true
					}
				}
			}
			return false
		}

		ast.Inspect(fd.Body, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.FuncLit:
				// A nested literal's own context parameter is its caller's
				// responsibility, not this function's: treat it as derived so
				// the literal threading its own ctx does not misfire.
				// ast.Inspect visits the literal before its body, so the mark
				// lands in time.
				if n.Type.Params != nil {
					for _, field := range n.Type.Params.List {
						for _, name := range field.Names {
							if obj := p.Info.Defs[name]; obj != nil && isContextType(obj.Type()) {
								derived[obj] = true
							}
						}
					}
				}
			case *ast.AssignStmt:
				rootDerived := false
				for _, rhs := range n.Rhs {
					if exprDerived(rhs) {
						rootDerived = true
					}
				}
				if !rootDerived {
					return true
				}
				for _, lhs := range n.Lhs {
					if id, ok := lhs.(*ast.Ident); ok {
						obj := p.Info.Defs[id]
						if obj == nil {
							obj = p.Info.Uses[id]
						}
						if obj != nil && isContextType(obj.Type()) {
							derived[obj] = true
						}
					}
				}
			case *ast.CallExpr:
				if name, ok := contextRootCall(p, n); ok && !isMain {
					diags = append(diags, diag(p, n, "ctxflow",
						"context.%s() roots a detached context outside main; thread the caller's ctx, or context.WithoutCancel(ctx) if outliving cancellation is the point", name))
					return true
				}
				if !hasCtxParam {
					return true
				}
				for _, arg := range n.Args {
					id, ok := ast.Unparen(arg).(*ast.Ident)
					if !ok {
						continue
					}
					obj := p.Info.Uses[id]
					if obj == nil || !isContextType(obj.Type()) || derived[obj] {
						continue
					}
					if _, isLocal := obj.(*types.Var); !isLocal || obj.Parent() == p.Types.Scope() {
						// Package-level contexts (rare, but not this rule's
						// concern) and non-vars are out of scope.
						continue
					}
					diags = append(diags, diag(p, arg, "ctxflow",
						"%s receives a context but hands callee a different one (%s); pass the received ctx or a context.With* derivation of it", fd.Name.Name, id.Name))
				}
			}
			return true
		})
	}
	return diags
}

// contextRootCall reports whether call is context.Background() or
// context.TODO(), returning which.
func contextRootCall(p *Package, call *ast.CallExpr) (string, bool) {
	sel, ok := call.Fun.(*ast.SelectorExpr)
	if !ok || (sel.Sel.Name != "Background" && sel.Sel.Name != "TODO") {
		return "", false
	}
	obj := p.Info.Uses[sel.Sel]
	if obj == nil || obj.Pkg() == nil || obj.Pkg().Path() != "context" {
		return "", false
	}
	return sel.Sel.Name, true
}

// isContextType reports whether t is context.Context.
func isContextType(t types.Type) bool { return isNamed(t, "context", "Context") }
