package lint

import (
	"go/ast"
	"go/types"
	"regexp"
)

// AtomicCounter guards race-cleanliness of shared counters on the sharded
// serve path: a plain-integer field named like a counter (served, *Drops,
// *Errors, ...) mutated from code reachable without the struct's owning
// mutex is a data race under -cores N. The analyzer builds the package's
// static call graph and flags mutations reachable from an exported entry
// point along a path that never takes the lock; the "callers hold mu" helper
// convention (Reassembler.gc) passes because every path to it locks first.
func AtomicCounter() *Analyzer {
	return &Analyzer{
		Name: "atomiccounter",
		Doc:  "flags plain-integer counter fields mutated without the owning mutex; require sync/atomic",
		Match: func(pkgPath string) bool {
			return pathIn(pkgPath, ModulePath, "", "internal/nic", "internal/mem", "internal/frontdoor")
		},
		Run: runAtomicCounter,
	}
}

// counterNameRE matches the repo's counter-field naming conventions.
var counterNameRE = regexp.MustCompile(
	`(^(count|drops|errors|expired|served|misses|frames|bytes|reads|writes|fires|hits|packets)$)` +
		`|((Count|Counts|Drops|Errors|Expired|Served|Misses|Frames|Bytes|Reads|Writes|Fires|Hits|Packets)$)`)

// counterStruct is one struct type with counter fields to audit.
type counterStruct struct {
	obj      *types.TypeName
	counters map[string]bool
	mutexes  map[string]bool
}

func runAtomicCounter(p *Package) []Diagnostic {
	structs := collectCounterStructs(p)
	if len(structs) == 0 {
		return nil
	}
	funcs, byObj := collectFuncs(p)

	// For every function: which structs' mutexes it locks, which in-package
	// functions it calls, and which counter fields it mutates.
	type mutation struct {
		owner *types.TypeName
		field string
		node  ast.Node
	}
	locks := make(map[*ast.FuncDecl]map[*types.TypeName]bool)
	// locksAny marks functions that take any sync.Mutex/RWMutex write lock:
	// counters of mutex-less structs reached only through such functions are
	// container-guarded (a table's mu protecting its per-entry structs).
	locksAny := make(map[*ast.FuncDecl]bool)
	calls := make(map[*ast.FuncDecl][]*ast.FuncDecl)
	muts := make(map[*ast.FuncDecl][]mutation)
	valueUsed := make(map[*ast.FuncDecl]bool)

	// callIdents marks identifiers that sit in the function position of a
	// call expression; ast.Inspect visits a call before its children, so
	// the marks land before the Ident case below reads them.
	callIdents := make(map[*ast.Ident]bool)

	for _, fd := range funcs {
		if fd.Body == nil {
			continue
		}
		locks[fd] = make(map[*types.TypeName]bool)
		ast.Inspect(fd.Body, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.CallExpr:
				switch fun := n.Fun.(type) {
				case *ast.Ident:
					callIdents[fun] = true
				case *ast.SelectorExpr:
					callIdents[fun.Sel] = true
				}
				// mu.Lock() on a mutex field of an audited struct.
				if owner, ok := lockedStruct(p, structs, n); ok {
					locks[fd][owner] = true
				}
				if isMutexLockCall(p, n) {
					locksAny[fd] = true
				}
				// Static call to an in-package function or method.
				if callee := calleeObj(p, n); callee != nil {
					if target, ok := byObj[callee]; ok {
						calls[fd] = append(calls[fd], target)
					}
				}
			case *ast.IncDecStmt:
				if owner, field, ok := counterSelector(p, structs, n.X); ok {
					muts[fd] = append(muts[fd], mutation{owner, field, n})
				}
			case *ast.AssignStmt:
				for _, lhs := range n.Lhs {
					if owner, field, ok := counterSelector(p, structs, lhs); ok {
						muts[fd] = append(muts[fd], mutation{owner, field, n})
					}
				}
			case *ast.Ident:
				// A function referenced as a value (callback, field
				// assignment) can be called from anywhere: treat it as an
				// entry point below.
				if obj := p.Info.Uses[n]; obj != nil {
					if target, ok := byObj[obj]; ok && !callIdents[n] {
						valueUsed[target] = true
					}
				}
			}
			return true
		})
	}

	// reach computes the functions reachable from an entry point along call
	// paths that never pass through a "blocked" (lock-holding) function.
	reach := func(blocked func(*ast.FuncDecl) bool) map[*ast.FuncDecl]bool {
		set := make(map[*ast.FuncDecl]bool)
		var queue []*ast.FuncDecl
		for _, fd := range funcs {
			entry := fd.Name.IsExported() || fd.Name.Name == "main" || fd.Name.Name == "init" || valueUsed[fd]
			if entry && !blocked(fd) && !set[fd] {
				set[fd] = true
				queue = append(queue, fd)
			}
		}
		for len(queue) > 0 {
			fd := queue[0]
			queue = queue[1:]
			for _, callee := range calls[fd] {
				if !set[callee] && !blocked(callee) {
					set[callee] = true
					queue = append(queue, callee)
				}
			}
		}
		return set
	}
	// neverLocked: reachable without ever holding any mutex — the test for
	// counters on structs with no mutex of their own, which may still be
	// container-guarded by the lock of the struct that owns them.
	neverLocked := reach(func(fd *ast.FuncDecl) bool { return locksAny[fd] })

	var diags []Diagnostic
	for _, cs := range structs {
		// Functions reachable without this struct's own mutex held.
		unlocked := reach(func(fd *ast.FuncDecl) bool { return locks[fd][cs.obj] })
		for _, fd := range funcs {
			for _, m := range muts[fd] {
				if m.owner != cs.obj {
					continue
				}
				switch {
				case len(cs.mutexes) == 0:
					if neverLocked[fd] && !locksAny[fd] {
						diags = append(diags, diag(p, m.node, "atomiccounter",
							"counter field %s.%s is a plain integer mutated with no mutex held; use a sync/atomic type", cs.obj.Name(), m.field))
					}
				case !locks[fd][cs.obj] && unlocked[fd]:
					diags = append(diags, diag(p, m.node, "atomiccounter",
						"counter field %s.%s mutated on a path that never holds the owning mutex; use a sync/atomic type or lock it", cs.obj.Name(), m.field))
				}
			}
		}
	}
	return diags
}

// isMutexLockCall reports whether call is X.Lock() where X is a
// sync.Mutex or sync.RWMutex value.
func isMutexLockCall(p *Package, call *ast.CallExpr) bool {
	sel, ok := call.Fun.(*ast.SelectorExpr)
	if !ok || sel.Sel.Name != "Lock" {
		return false
	}
	tv, ok := p.Info.Types[sel.X]
	return ok && isMutexType(tv.Type)
}

// collectCounterStructs finds package-level struct types that have at least
// one plain-integer counter-named field.
func collectCounterStructs(p *Package) []*counterStruct {
	var out []*counterStruct
	scope := p.Types.Scope()
	for _, name := range scope.Names() {
		tn, ok := scope.Lookup(name).(*types.TypeName)
		if !ok || tn.IsAlias() {
			continue
		}
		st, ok := tn.Type().Underlying().(*types.Struct)
		if !ok {
			continue
		}
		cs := &counterStruct{obj: tn, counters: make(map[string]bool), mutexes: make(map[string]bool)}
		for i := 0; i < st.NumFields(); i++ {
			f := st.Field(i)
			if isMutexType(f.Type()) {
				cs.mutexes[f.Name()] = true
				continue
			}
			if b, ok := f.Type().Underlying().(*types.Basic); ok && b.Info()&types.IsInteger != 0 &&
				counterNameRE.MatchString(f.Name()) {
				cs.counters[f.Name()] = true
			}
		}
		if len(cs.counters) > 0 {
			out = append(out, cs)
		}
	}
	return out
}

func isMutexType(t types.Type) bool { return isNamed(t, "sync", "Mutex", "RWMutex") }

// collectFuncs returns every function and method declaration in the
// package, and each one by its object.
func collectFuncs(p *Package) ([]*ast.FuncDecl, map[types.Object]*ast.FuncDecl) {
	var out []*ast.FuncDecl
	byObj := make(map[types.Object]*ast.FuncDecl)
	for _, f := range p.Files {
		for _, decl := range f.Decls {
			if fd, ok := decl.(*ast.FuncDecl); ok {
				out = append(out, fd)
				if obj := p.Info.Defs[fd.Name]; obj != nil {
					byObj[obj] = fd
				}
			}
		}
	}
	return out, byObj
}

// lockedStruct reports whether call is base.mu.Lock() for a mutex field mu
// of an audited struct, returning that struct.
func lockedStruct(p *Package, structs []*counterStruct, call *ast.CallExpr) (*types.TypeName, bool) {
	sel, ok := call.Fun.(*ast.SelectorExpr)
	if !ok || sel.Sel.Name != "Lock" {
		return nil, false
	}
	inner, ok := sel.X.(*ast.SelectorExpr)
	if !ok {
		return nil, false
	}
	owner, field, ok := fieldOwner(p, inner)
	if !ok {
		return nil, false
	}
	for _, cs := range structs {
		if cs.obj == owner && cs.mutexes[field] {
			return owner, true
		}
	}
	return nil, false
}

// counterSelector reports whether expr selects a counter field of an audited
// struct through a pointer. Value-typed bases (a local Metrics snapshot
// being filled in) cannot be shared and are not mutations of live state.
func counterSelector(p *Package, structs []*counterStruct, expr ast.Expr) (*types.TypeName, string, bool) {
	sel, ok := expr.(*ast.SelectorExpr)
	if !ok {
		return nil, "", false
	}
	if tv, ok := p.Info.Types[sel.X]; !ok || !isPointerLike(tv.Type) {
		return nil, "", false
	}
	owner, field, ok := fieldOwner(p, sel)
	if !ok {
		return nil, "", false
	}
	for _, cs := range structs {
		if cs.obj == owner && cs.counters[field] {
			return owner, field, true
		}
	}
	return nil, "", false
}

// isPointerLike reports whether a mutation through t can alias shared state.
func isPointerLike(t types.Type) bool {
	_, ok := t.Underlying().(*types.Pointer)
	return ok
}

// fieldOwner resolves a selector base.f to the named struct type owning
// field f.
func fieldOwner(p *Package, sel *ast.SelectorExpr) (*types.TypeName, string, bool) {
	tv, ok := p.Info.Types[sel.X]
	if !ok {
		return nil, "", false
	}
	t := tv.Type
	if ptr, ok := t.Underlying().(*types.Pointer); ok {
		t = ptr.Elem()
	}
	named, ok := t.(*types.Named)
	if !ok {
		return nil, "", false
	}
	return named.Obj(), sel.Sel.Name, true
}

// calleeObj resolves a call's static callee when it is a plain function or
// method named in this package.
func calleeObj(p *Package, call *ast.CallExpr) types.Object {
	switch fun := call.Fun.(type) {
	case *ast.Ident:
		return p.Info.Uses[fun]
	case *ast.SelectorExpr:
		return p.Info.Uses[fun.Sel]
	}
	return nil
}
