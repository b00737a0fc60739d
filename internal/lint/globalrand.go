package lint

import (
	"go/ast"
	"go/types"
)

// randConstructors are the math/rand(/v2) functions that build sources and
// generators rather than drawing from the package-level source. They are the
// sanctioned way to create an injected seeded *rand.Rand, so they pass —
// unless seeded from the wall clock, which the analyzer flags separately.
var randConstructors = map[string]bool{
	"New":        true,
	"NewPCG":     true,
	"NewSource":  true,
	"NewChaCha8": true,
	"NewZipf":    true,
}

// GlobalRand guards fixed-seed reproducibility: inside the simulation
// packages every random draw must come from an injected seeded *rand.Rand
// (or rand.Source) so that a Cores=1 run with a fixed Config.Seed is
// bit-identical across processes. Calls to the package-level math/rand/v2
// draw functions (rand.Float64, rand.IntN, ...) consume the shared global
// source, whose state depends on every other draw in the process — and in
// rand/v2 is itself randomly seeded — so one stray call silently breaks
// determinism without failing any test. Seeding a source from time.Now is
// the same bug through a different door.
func GlobalRand() *Analyzer {
	return &Analyzer{
		Name: "globalrand",
		Doc:  "flags draws from the global math/rand source and time-seeded sources in simulation packages",
		Match: func(pkgPath string) bool {
			return pathIn(pkgPath, ModulePath,
				"internal/photonic", "internal/emu", "internal/sim", "internal/nn",
				"internal/converter", "internal/devkit", "internal/fault")
		},
		Run: runGlobalRand,
	}
}

func runGlobalRand(p *Package) []Diagnostic {
	var diags []Diagnostic
	for _, f := range p.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok {
				return true
			}
			pkg, name := pkgFuncCall(p, call)
			if pkg != "math/rand" && pkg != "math/rand/v2" {
				return true
			}
			if !randConstructors[name] {
				diags = append(diags, diag(p, call, "globalrand",
					"rand.%s draws from the process-global source; draw from an injected seeded *rand.Rand so fixed-seed runs stay reproducible", name))
				return true
			}
			// A constructor: its seed arguments must not come from the
			// wall clock.
			for _, arg := range call.Args {
				ast.Inspect(arg, func(m ast.Node) bool {
					inner, ok := m.(*ast.CallExpr)
					if !ok {
						return true
					}
					if ipkg, iname := pkgFuncCall(p, inner); ipkg == "time" && iname == "Now" {
						diags = append(diags, diag(p, inner, "globalrand",
							"rand.%s seeded from time.Now breaks fixed-seed reproducibility; derive the seed from Config.Seed", name))
					}
					return true
				})
			}
			return true
		})
	}
	return diags
}

// pkgFuncCall resolves a call of the form pkg.Fn(...) to its package import
// path and function name; it returns ("", "") for anything else (methods,
// locals, conversions).
func pkgFuncCall(p *Package, call *ast.CallExpr) (pkgPath, name string) {
	sel, ok := call.Fun.(*ast.SelectorExpr)
	if !ok {
		return "", ""
	}
	ident, ok := sel.X.(*ast.Ident)
	if !ok {
		return "", ""
	}
	pn, ok := p.Info.Uses[ident].(*types.PkgName)
	if !ok {
		return "", ""
	}
	return pn.Imported().Path(), sel.Sel.Name
}
