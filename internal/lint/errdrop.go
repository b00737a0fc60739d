package lint

import (
	"go/ast"
	"go/types"
	"strings"
)

// ErrDrop guards wire-path error hygiene: errors returned by the wire codec
// (AppendEncode/Decode/DecodeNext) and by socket writes (net.PacketConn.WriteTo,
// net.Conn.Write, deadline setters) carry operational signal — a lost
// response, a malformed datagram — and discarding one hides a fault class a
// deployment needs to count. The analyzer flags, module-wide, call
// statements and blank assignments that throw such an error away. Sites
// where the drop is the designed behaviour annotate with //lint:drop
// <reason>, which doubles as documentation.
func ErrDrop() *Analyzer {
	return &Analyzer{
		Name: "errdrop",
		Doc:  "flags discarded errors from wire codec and socket calls; count them or annotate //lint:drop",
		Run:  runErrDrop,
	}
}

// errDropMethods are the audited method names, grouped by how the receiver
// is recognized.
var (
	// codecMethods are wire-codec methods on this module's types.
	codecMethods = map[string]bool{
		"AppendEncode": true,
		"Decode":       true,
		"DecodeNext":   true,
	}
	// netMethods are socket operations on net package types (PacketConn,
	// Conn and their concrete implementations).
	netMethods = map[string]bool{
		"Write":            true,
		"WriteTo":          true,
		"SetReadDeadline":  true,
		"SetWriteDeadline": true,
		"SetDeadline":      true,
	}
)

func runErrDrop(p *Package) []Diagnostic {
	var diags []Diagnostic
	for _, f := range p.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.ExprStmt:
				// A bare call statement discards every result.
				if call, ok := n.X.(*ast.CallExpr); ok && returnsError(p, call) && auditedCallee(p, call) {
					diags = append(diags, diag(p, n, "errdrop",
						"error from %s discarded; count it in metrics, handle it, or annotate //lint:drop <reason>", calleeDesc(p, call)))
				}
			case *ast.AssignStmt:
				// _ = call or v, _ = call where the blank swallows the
				// error result.
				if len(n.Rhs) != 1 {
					return true
				}
				call, ok := n.Rhs[0].(*ast.CallExpr)
				if !ok || !auditedCallee(p, call) {
					return true
				}
				if blankDropsError(p, n, call) {
					diags = append(diags, diag(p, n, "errdrop",
						"error from %s assigned to _; count it in metrics, handle it, or annotate //lint:drop <reason>", calleeDesc(p, call)))
				}
			}
			return true
		})
	}
	return diags
}

// auditedCallee reports whether the call's callee is one of the audited
// wire/socket methods.
func auditedCallee(p *Package, call *ast.CallExpr) bool {
	sel, ok := call.Fun.(*ast.SelectorExpr)
	if !ok {
		return false
	}
	fn, ok := p.Info.Uses[sel.Sel].(*types.Func)
	if !ok {
		return false
	}
	sig, ok := fn.Type().(*types.Signature)
	if !ok || sig.Recv() == nil {
		return false
	}
	name := fn.Name()
	recvPkg := receiverPkg(sig.Recv().Type())
	switch {
	case codecMethods[name]:
		// Wire-codec methods audited on this module's own types (so an
		// unrelated third-party Decode does not trip the check).
		return recvPkg == ModulePath || strings.HasPrefix(recvPkg, ModulePath+"/")
	case netMethods[name]:
		return recvPkg == "net"
	}
	return false
}

// receiverPkg returns the import path of the package defining the receiver's
// named type ("" for unnamed receivers).
func receiverPkg(t types.Type) string {
	if ptr, ok := t.(*types.Pointer); ok {
		t = ptr.Elem()
	}
	named, ok := t.(*types.Named)
	if !ok || named.Obj().Pkg() == nil {
		return ""
	}
	return named.Obj().Pkg().Path()
}

// returnsError reports whether the call has at least one error result.
func returnsError(p *Package, call *ast.CallExpr) bool {
	tv, ok := p.Info.Types[call]
	if !ok {
		return false
	}
	switch t := tv.Type.(type) {
	case *types.Tuple:
		for i := 0; i < t.Len(); i++ {
			if isErrorType(t.At(i).Type()) {
				return true
			}
		}
		return false
	default:
		return isErrorType(t)
	}
}

// blankDropsError reports whether the assignment discards the call's error
// result into a blank identifier.
func blankDropsError(p *Package, assign *ast.AssignStmt, call *ast.CallExpr) bool {
	tv, ok := p.Info.Types[call]
	if !ok {
		return false
	}
	results, ok := tv.Type.(*types.Tuple)
	if !ok {
		// Single result: dropped iff assigned to _.
		if !isErrorType(tv.Type) || len(assign.Lhs) != 1 {
			return false
		}
		id, ok := assign.Lhs[0].(*ast.Ident)
		return ok && id.Name == "_"
	}
	if results.Len() != len(assign.Lhs) {
		return false
	}
	for i := 0; i < results.Len(); i++ {
		if !isErrorType(results.At(i).Type()) {
			continue
		}
		if id, ok := assign.Lhs[i].(*ast.Ident); ok && id.Name == "_" {
			return true
		}
	}
	return false
}

var errorType = types.Universe.Lookup("error").Type()

func isErrorType(t types.Type) bool { return types.Identical(t, errorType) }

// calleeDesc renders a call target as recv.Method for diagnostics.
func calleeDesc(p *Package, call *ast.CallExpr) string {
	sel := call.Fun.(*ast.SelectorExpr)
	if fn, ok := p.Info.Uses[sel.Sel].(*types.Func); ok {
		if sig, ok := fn.Type().(*types.Signature); ok && sig.Recv() != nil {
			t := sig.Recv().Type()
			if ptr, ok := t.(*types.Pointer); ok {
				t = ptr.Elem()
			}
			if named, ok := t.(*types.Named); ok {
				return named.Obj().Name() + "." + fn.Name()
			}
		}
		return fn.Name()
	}
	return sel.Sel.Name
}
