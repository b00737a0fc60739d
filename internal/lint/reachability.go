package lint

import (
	"go/ast"
	"go/token"
	"go/types"
	"maps"
	"os"
	"path/filepath"
	"strings"
)

// Reachability holds "code with no path from a binary or experiment does
// not stay" per function, against the whole program whichever packages a run
// names. Roots: main and init of every package main the loader holds once
// cmd/ and benchmark/ are loaded, init and var initializers of every package
// those import, and each declaration annotated //lint:allow reachability
// <reason> (on a package clause, the whole package). The walk follows every function reached code names; a
// method reached only through an interface counts when reached code holds
// its receiver's type and an interface it implements with it, the standard
// library's and fmt.Stringer included. Each unreached function is reported,
// or the package clause once when nothing in the package is reached.
func Reachability() *Analyzer {
	return &Analyzer{Name: "reachability", Run: runReachability,
		Doc: "flags functions and methods with no path from a program's main, init or var initializers"}
}

func runReachability(p *Package) []Diagnostic {
	prog, err := p.loader.program()
	clause := p.Files[0]
	for _, f := range p.Files {
		if f.Doc != nil && (clause.Doc == nil || allowed(f.Doc)) {
			clause = f
		}
	}
	if err != nil {
		return []Diagnostic{diag(p, clause.Name, "reachability", "cannot load the program's roots: %v", err)}
	}
	var dead []Diagnostic
	anyLive, allLive := false, true
	funcs, _ := collectFuncs(p)
	for _, fd := range funcs {
		f, _ := p.Info.Defs[fd.Name].(*types.Func)
		live := f == nil || prog.live[f]
		anyLive, allLive = anyLive || live, allLive && live
		if !live && (allowed(fd.Doc) || !prog.kept[f]) {
			dead = append(dead, diag(p, fd, "reachability", "%s has no path from a program root; delete it, or annotate //lint:allow reachability <the test that needs it>",
				strings.ReplaceAll(f.FullName(), p.Types.Path()+".", "")))
		}
	}
	if whole := allowed(clause.Doc); whole && !allLive || !whole && !anyLive && len(dead) > 0 {
		return []Diagnostic{diag(p, clause.Name, "reachability", "nothing in package %s has a path from a program root; delete it, or annotate its clause //lint:allow reachability <the tests it supports>", p.Types.Name())}
	}
	return dead
}

// allowed reports whether a doc comment ends in a reasoned reachability
// annotation.
func allowed(doc *ast.CommentGroup) bool {
	return doc != nil && strings.HasPrefix(doc.List[len(doc.List)-1].Text, "//lint:allow reachability ")
}

// program is one walk over the n packages a loader held: live is what the
// program roots reach, kept adds what annotations reach. The walk keeps a
// work list of declarations, and the types reached code holds: the
// program's concrete named types, and interfaces by method name.
type program struct {
	n          int
	live, kept map[*types.Func]bool
	decls      map[*types.Func]site
	work       []site
	seen       map[types.Type]bool
	pkgs       map[*types.Package]*Package
	named      []*types.Named
	ifaces     map[string][]*types.Interface
}

// site is a declaration to walk and the package that resolves it.
type site struct {
	p *Package
	n ast.Node
}

func (l *Loader) program() (*program, error) {
	for _, dir := range []string{"cmd", "benchmark"} {
		if _, err := os.Stat(filepath.Join(l.root, dir)); err == nil {
			if _, err := l.Load(dir + "/..."); err != nil {
				return nil, err
			}
		}
	}
	if l.prog != nil && l.prog.n == len(l.byDir) {
		return l.prog, nil
	}
	w := &program{n: len(l.byDir), kept: map[*types.Func]bool{}, decls: map[*types.Func]site{},
		seen: map[types.Type]bool{}, pkgs: map[*types.Package]*Package{}, ifaces: map[string][]*types.Interface{}}
	for _, p := range l.byDir {
		w.pkgs[p.Types] = p
	}
	roots := map[*Package]bool{}
	var imports func(p *Package)
	imports = func(p *Package) {
		if p != nil && !roots[p] {
			roots[p] = true
			for _, t := range p.Types.Imports() {
				imports(w.pkgs[t])
			}
		}
	}
	for _, p := range l.byDir {
		if p.Types.Name() == "main" {
			imports(p)
		}
	}
	var annotated []*types.Func
	for _, p := range l.byDir {
		whole := false
		for _, f := range p.Files {
			whole = whole || allowed(f.Doc)
		}
		for _, f := range p.Files {
			for _, d := range f.Decls {
				if d, ok := d.(*ast.GenDecl); ok && d.Tok == token.VAR && roots[p] {
					w.work = append(w.work, site{p, d})
				}
				d, ok := d.(*ast.FuncDecl)
				if !ok || p.Info.Defs[d.Name] == nil {
					continue
				}
				fn := p.Info.Defs[d.Name].(*types.Func)
				w.decls[fn] = site{p, d}
				if roots[p] && d.Recv == nil && (d.Name.Name == "init" || d.Name.Name == "main" && p.Types.Name() == "main") {
					w.reach(fn)
				} else if whole || allowed(d.Doc) {
					annotated = append(annotated, fn)
				}
			}
		}
	}
	// fmt's printers call String through a type assertion inside fmt.
	if fmt, err := l.std.Import("fmt"); err == nil {
		w.see(fmt.Scope().Lookup("Stringer").Type())
	}
	w.run()
	w.live = maps.Clone(w.kept)
	for _, fn := range annotated {
		w.reach(fn)
	}
	w.run()
	l.prog = w
	return w, nil
}

// run walks the work list, then dispatches interface methods, until
// neither reaches anything new.
func (w *program) run() {
	for len(w.work) > 0 {
		for len(w.work) > 0 {
			s := w.work[len(w.work)-1]
			w.work = w.work[:len(w.work)-1]
			ast.Inspect(s.n, func(n ast.Node) bool {
				if id, ok := n.(*ast.Ident); ok && s.p.Info.Uses[id] != nil {
					w.see(s.p.Info.Uses[id].Type())
					if f, ok := s.p.Info.Uses[id].(*types.Func); ok {
						w.reach(f)
					}
				} else if e, ok := n.(ast.Expr); ok {
					w.see(s.p.Info.Types[e].Type)
				}
				return true
			})
		}
		for _, t := range w.named {
			ms := types.NewMethodSet(types.NewPointer(t))
			for i := 0; i < ms.Len(); i++ {
				m := ms.At(i).Obj().(*types.Func)
				for _, it := range w.ifaces[m.Name()] {
					if !w.kept[m.Origin()] && types.Implements(types.NewPointer(t), it) {
						w.reach(m)
					}
				}
			}
		}
	}
}

func (w *program) reach(f *types.Func) {
	if f = f.Origin(); !w.kept[f] {
		w.kept[f] = true
		if s, ok := w.decls[f]; ok {
			w.work = append(w.work, s)
		}
	}
}

// see records a type that reached code holds, and the element, parameter
// and result types inside it.
func (w *program) see(t types.Type) {
	if t == nil || w.seen[t] {
		return
	}
	w.seen[t] = true
	switch u := types.Unalias(t).(type) {
	case interface{ Elem() types.Type }:
		w.see(u.Elem())
	case *types.Tuple:
		for i := 0; i < u.Len(); i++ {
			w.see(u.At(i).Type())
		}
	case *types.Signature:
		w.see(u.Params())
		w.see(u.Results())
	default:
		if it, ok := t.Underlying().(*types.Interface); ok {
			for i := 0; i < it.NumMethods(); i++ {
				w.ifaces[it.Method(i).Name()] = append(w.ifaces[it.Method(i).Name()], it)
			}
		} else if n, ok := u.(*types.Named); ok && w.pkgs[n.Obj().Pkg()] != nil {
			w.named = append(w.named, n)
		}
	}
}
