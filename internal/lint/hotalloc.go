package lint

import (
	"go/ast"
	"go/types"
	"strings"
)

// HotAlloc guards the zero-allocation contract on the analog hot paths: a
// function marked with a `//lint:hotpath` doc-comment line (Core.Step,
// DotPartialsInto, the engine's issueRow) promises zero steady-state heap
// allocations per call — the property the AllocsPerRun guard tests and CI's
// bench smoke enforce at runtime. The allocating builtins append, make and
// new inside such a function are flagged at the call site: growth belongs in
// a cold helper (growPartials, engineScratch.ensure) operating on
// caller-owned storage, so the hot body stays syntactically allocation-free
// and a future edit cannot quietly reintroduce a per-element allocation.
// The marker is opt-in per function; unmarked code allocates freely.
func HotAlloc() *Analyzer {
	return &Analyzer{
		Name: "hotalloc",
		Doc:  "flags append/make/new inside functions marked //lint:hotpath",
		Run:  runHotAlloc,
	}
}

func runHotAlloc(p *Package) []Diagnostic {
	var diags []Diagnostic
	for _, f := range p.Files {
		for _, decl := range f.Decls {
			fn, ok := decl.(*ast.FuncDecl)
			if !ok || fn.Body == nil || !hasHotPathMarker(fn.Doc) {
				continue
			}
			ast.Inspect(fn.Body, func(n ast.Node) bool {
				call, ok := n.(*ast.CallExpr)
				if !ok {
					return true
				}
				id, ok := ast.Unparen(call.Fun).(*ast.Ident)
				if !ok {
					return true
				}
				b, ok := p.Info.Uses[id].(*types.Builtin)
				if !ok {
					return true
				}
				switch b.Name() {
				case "append", "make", "new":
					diags = append(diags, diag(p, call, "hotalloc",
						"%s in //lint:hotpath function %s can allocate per call; grow caller-owned storage in a cold helper instead", b.Name(), fn.Name.Name))
				}
				return true
			})
		}
	}
	return diags
}

// hasHotPathMarker reports whether a declaration's doc comment carries the
// //lint:hotpath line.
func hasHotPathMarker(doc *ast.CommentGroup) bool {
	if doc == nil {
		return false
	}
	for _, c := range doc.List {
		if strings.TrimSpace(c.Text) == "//lint:hotpath" {
			return true
		}
	}
	return false
}
