package lint

import (
	"go/ast"
	"go/token"
	"go/types"
	"sort"
	"strings"
)

// LockOrder guards against deadlock by lock-order inversion, the mutex
// hazard the sharded serve path (per-shard mu + hmu, the admission mutex,
// the batcher's queue locks) makes live. It builds the package's
// lock-acquisition graph with the same call-graph machinery as
// atomiccounter: a node is a mutex identity (a named struct's mutex field,
// or a package-level mutex var), and an edge A→B means some path acquires B
// while holding A — directly in one function, or through a call to an
// in-package function that (transitively) acquires B. A cycle in that graph
// is a potential deadlock: two goroutines entering the cycle from different
// edges wait on each other forever. Lock copies are go vet's copylocks
// check, which CI runs.
func LockOrder() *Analyzer {
	return &Analyzer{
		Name: "lockorder",
		Doc:  "flags cycles in the lock-acquisition graph (potential lock-order deadlocks)",
		Match: func(pkgPath string) bool {
			return pkgPath == ModulePath ||
				underInternal(pkgPath, ModulePath) ||
				strings.HasPrefix(pkgPath, ModulePath+"/cmd/")
		},
		Run: lockCycleDiags,
	}
}

// lockNode is one mutex identity in the acquisition graph.
type lockNode struct {
	// owner is the named type whose field the mutex is, or nil for a
	// package-level mutex var.
	owner *types.TypeName
	// name is the field or var name.
	name string
}

func (ln lockNode) String() string {
	if ln.owner != nil {
		return ln.owner.Name() + "." + ln.name
	}
	return ln.name
}

// lockEdge is one observed "acquired B while holding A", with the position
// of the acquisition that created it.
type lockEdge struct {
	from, to lockNode
	pos      token.Position
	node     ast.Node
}

// lockCycleDiags builds the acquisition graph and reports every edge that
// participates in a cycle.
func lockCycleDiags(p *Package) []Diagnostic {
	funcs := collectFuncs(p)
	byObj := make(map[types.Object]*ast.FuncDecl)
	for _, fd := range funcs {
		if obj := p.Info.Defs[fd.Name]; obj != nil {
			byObj[obj] = fd
		}
	}

	// The held set is tracked per body: each declared function, and each
	// function literal on its own, because a literal runs when it is called
	// (on another goroutine, from a timer, deferred), not where it is
	// written, so what it locks is not held or acquired by its encloser.
	var bodies []ast.Node
	for _, fd := range funcs {
		if fd.Body == nil {
			continue
		}
		bodies = append(bodies, fd)
		ast.Inspect(fd.Body, func(n ast.Node) bool {
			if lit, ok := n.(*ast.FuncLit); ok {
				bodies = append(bodies, lit)
			}
			return true
		})
	}

	// Pass 1, per body in source order: the locks it acquires directly,
	// and the in-package calls it makes with the held-lock set at each call
	// site. The held set is tracked linearly (an Unlock releases, a deferred
	// Unlock holds to function end), which is exact for the straight-line
	// lock/unlock bracketing the codebase uses.
	type callSite struct {
		callee types.Object
		held   []lockNode
	}
	directAcquires := make(map[ast.Node][]lockNode)
	callSites := make(map[ast.Node][]callSite)
	var edges []lockEdge
	for _, fn := range bodies {
		var block *ast.BlockStmt
		switch fn := fn.(type) {
		case *ast.FuncDecl:
			block = fn.Body
		case *ast.FuncLit:
			block = fn.Body
		}
		var held []lockNode
		ast.Inspect(block, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.FuncLit:
				return false // its own body
			case *ast.DeferStmt:
				// A deferred Unlock holds the lock for the rest of the
				// function; don't treat it as a release at this point.
				_, isUnlock := mutexCallNode(p, n.Call, "Unlock", "RUnlock")
				return !isUnlock
			}
			call, ok := n.(*ast.CallExpr)
			if !ok {
				return true
			}
			if node, ok := mutexCallNode(p, call, "Lock", "RLock"); ok {
				for _, h := range held {
					edges = append(edges, lockEdge{from: h, to: node, pos: p.Fset.Position(call.Pos()), node: call})
				}
				held = append(held, node)
				directAcquires[fn] = append(directAcquires[fn], node)
				return true
			}
			if node, ok := mutexCallNode(p, call, "Unlock", "RUnlock"); ok {
				for i := len(held) - 1; i >= 0; i-- {
					if held[i] == node {
						held = append(held[:i], held[i+1:]...)
						break
					}
				}
				return true
			}
			// Every in-package call is kept, held set or not: a callee
			// reached through a helper that holds nothing still adds to
			// the helper's transitive acquires.
			if callee := calleeObj(p, call); callee != nil {
				if _, inPkg := byObj[callee]; inPkg {
					callSites[fn] = append(callSites[fn], callSite{callee: callee, held: append([]lockNode(nil), held...)})
				}
			}
			return true
		})
	}

	// Pass 2: transitive acquire sets via fixpoint over the call graph.
	trans := make(map[ast.Node]map[lockNode]bool)
	for _, fn := range bodies {
		set := make(map[lockNode]bool)
		for _, n := range directAcquires[fn] {
			set[n] = true
		}
		trans[fn] = set
	}
	for changed := true; changed; {
		changed = false
		for _, fn := range bodies {
			for _, cs := range callSites[fn] {
				for n := range trans[byObj[cs.callee]] {
					if !trans[fn][n] {
						trans[fn][n] = true
						changed = true
					}
				}
			}
		}
	}
	// Interprocedural edges: holding H across a call whose callee
	// transitively acquires B yields H→B.
	for _, fn := range bodies {
		for _, cs := range callSites[fn] {
			pos := p.Fset.Position(fn.Pos())
			for _, h := range cs.held {
				for n := range trans[byObj[cs.callee]] {
					edges = append(edges, lockEdge{from: h, to: n, pos: pos, node: fn})
				}
			}
		}
	}

	// Cycle report: an edge A→B is part of a cycle iff A is reachable from
	// B. Each (A, B) pair reports once, at the earliest position observed.
	adj := make(map[lockNode]map[lockNode]bool)
	for _, e := range edges {
		if adj[e.from] == nil {
			adj[e.from] = make(map[lockNode]bool)
		}
		adj[e.from][e.to] = true
	}
	reaches := func(from, to lockNode) bool {
		seen := map[lockNode]bool{from: true}
		queue := []lockNode{from}
		for len(queue) > 0 {
			n := queue[0]
			queue = queue[1:]
			if n == to {
				return true
			}
			for m := range adj[n] {
				if !seen[m] {
					seen[m] = true
					queue = append(queue, m)
				}
			}
		}
		return false
	}
	sort.Slice(edges, func(i, j int) bool {
		a, b := edges[i].pos, edges[j].pos
		if a.Filename != b.Filename {
			return a.Filename < b.Filename
		}
		return a.Line < b.Line
	})
	reported := make(map[string]bool)
	var diags []Diagnostic
	for _, e := range edges {
		key := e.from.String() + "→" + e.to.String()
		if reported[key] || !reaches(e.to, e.from) {
			continue
		}
		reported[key] = true
		if e.from == e.to {
			diags = append(diags, diag(p, e.node, "lockorder",
				"lock %s acquired while already held (self-deadlock, or two instances locked in arbitrary order); release first or impose a total order", e.from))
			continue
		}
		diags = append(diags, diag(p, e.node, "lockorder",
			"lock %s acquired while holding %s closes a lock-order cycle (%s is also acquired while %s is held); pick one order", e.to, e.from, e.from, e.to))
	}
	return diags
}

// mutexCallNode resolves a call X.<sel>() (sel in names) on a sync.Mutex or
// sync.RWMutex to its graph node: a named struct's mutex field, or a
// package-level mutex var.
func mutexCallNode(p *Package, call *ast.CallExpr, names ...string) (lockNode, bool) {
	sel, ok := call.Fun.(*ast.SelectorExpr)
	if !ok {
		return lockNode{}, false
	}
	match := false
	for _, n := range names {
		if sel.Sel.Name == n {
			match = true
		}
	}
	if !match {
		return lockNode{}, false
	}
	tv, ok := p.Info.Types[sel.X]
	if !ok || !isMutexType(tv.Type) {
		return lockNode{}, false
	}
	switch x := ast.Unparen(sel.X).(type) {
	case *ast.SelectorExpr:
		if owner, field, ok := fieldOwner(p, x); ok {
			return lockNode{owner: owner, name: field}, true
		}
	case *ast.Ident:
		if obj := p.Info.Uses[x]; obj != nil && obj.Parent() == p.Types.Scope() {
			return lockNode{name: obj.Name()}, true
		}
	}
	return lockNode{}, false
}
