// Package lint is Lightning's project-specific static-analysis suite: the
// invariants the Go compiler cannot see. Counters on the sharded serve path
// are atomic or held under their owning mutex (atomiccounter), wire-facing
// errors are counted rather than dropped (errdrop), every spawned goroutine
// has a provable shutdown path (goleak), the lock graph stays acyclic
// (lockorder), the serve path threads its caller's context (ctxflow), every
// function has a path from a program (reachability), and no escape-hatch
// annotation outlives its violation (stalesuppress).
//
// Each analyzer has caught a real bug in the repo's history or is the only
// check that catches a realistic one (DESIGN.md §8 keeps the ledger);
// cmd/lightning-lint runs them all and CI fails on any diagnostic. Lock
// copies are go vet's copylocks check. The suite is stdlib-only: go/parser
// and go/types (loader.go).
package lint

import (
	"cmp"
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"regexp"
	"slices"
	"sort"
	"strings"
)

// Diagnostic is one finding: an invariant violation at a source position.
type Diagnostic struct {
	// Pos locates the violating expression or statement.
	Pos token.Position
	// Analyzer names the check that fired (e.g. "errdrop").
	Analyzer string
	// Message explains the violation and the sanctioned alternative.
	Message string
}

// String formats a diagnostic as "file:line: analyzer: message", the shape
// the CLI prints and the fixture goldens record.
func (d Diagnostic) String() string {
	return fmt.Sprintf("%s:%d: %s: %s", d.Pos.Filename, d.Pos.Line, d.Analyzer, d.Message)
}

// Analyzer is one project-specific check.
type Analyzer struct {
	// Name identifies the analyzer in diagnostics and //lint:allow
	// annotations.
	Name string
	// Doc is a one-line description of the guarded invariant.
	Doc string
	// Match reports whether the analyzer applies to a package, keyed by
	// import path; nil matches every package.
	Match func(pkgPath string) bool
	// Run inspects one package and returns its findings.
	Run func(p *Package) []Diagnostic
}

// Analyzers returns the full suite in reporting order.
func Analyzers() []*Analyzer {
	return []*Analyzer{
		AtomicCounter(),
		ErrDrop(),
		GoLeak(),
		LockOrder(),
		CtxFlow(),
		Reachability(),
		StaleSuppress(),
	}
}

// StaleSuppress is the suppression-hygiene check: a //lint:allow or
// //lint:drop annotation that silences no diagnostic is itself one, so an
// escape hatch cannot outlive the violation it excused. Liveness is a
// property of a whole run, so the engine (Run) performs the check; this
// Analyzer opts a run into it. Annotations naming an analyzer outside the
// run are left alone: only a run of that analyzer can prove them dead.
func StaleSuppress() *Analyzer {
	return &Analyzer{
		Name: "stalesuppress",
		Doc:  "flags //lint:allow|drop annotations that suppress no diagnostic (stale, bare, or naming no analyzer)",
		Run:  func(p *Package) []Diagnostic { return nil },
	}
}

// Run applies every matching analyzer to every package and returns the
// surviving (non-suppressed) diagnostics sorted by file, line, analyzer.
// When the set includes StaleSuppress, annotations that suppressed nothing
// are reported after the analyzers finish.
func Run(pkgs []*Package, analyzers []*Analyzer) []Diagnostic {
	checkStale := false
	inSet := make(map[string]bool, len(analyzers))
	for _, a := range analyzers {
		inSet[a.Name] = true
		if a.Name == "stalesuppress" {
			checkStale = true
		}
	}
	known := make(map[string]bool)
	for _, a := range Analyzers() {
		known[a.Name] = true
	}
	var out []Diagnostic
	for _, p := range pkgs {
		sup := newSuppressions(p)
		for _, a := range analyzers {
			if a.Match != nil && !a.Match(p.Path) {
				continue
			}
			for _, d := range a.Run(p) {
				if sup.suppressed(a.Name, d.Pos) {
					continue
				}
				out = append(out, d)
			}
		}
		if checkStale {
			out = append(out, staleDiags(sup, inSet, known)...)
		}
	}
	sort.Slice(out, func(i, j int) bool {
		a, b := out[i], out[j]
		return cmp.Or(strings.Compare(a.Pos.Filename, b.Pos.Filename), cmp.Compare(a.Pos.Line, b.Pos.Line),
			strings.Compare(a.Analyzer, b.Analyzer)) < 0
	})
	return out
}

// annotation is one parsed //lint:allow or //lint:drop escape hatch
// (Directive "allow" or "drop"). Analyzer is the silenced analyzer
// ("errdrop" for a drop). Bare marks an
// annotation with no reason, which suppresses nothing, so every silenced
// site says why. Used records that it silenced a diagnostic in this run,
// the liveness bit stalesuppress reads.
type annotation struct {
	Pos                 token.Position
	Directive, Analyzer string
	Bare, Used          bool
}

// suppressions indexes the escape-hatch annotations of one package:
//
//	//lint:drop <reason>             suppresses errdrop at that site
//	//lint:allow <analyzer> <reason> suppresses any analyzer at that site
//
// An annotation applies to diagnostics on its own line (trailing comment)
// or on the line directly below (comment above the statement).
type suppressions struct {
	// all holds every annotation in the package, in file order.
	all []*annotation
	// byFile maps filename → line → the annotations covering that line.
	byFile map[string]map[int][]*annotation
}

var annotationRE = regexp.MustCompile(`^//lint:(drop|allow)(\s|$)`)

func newSuppressions(p *Package) *suppressions {
	s := &suppressions{byFile: make(map[string]map[int][]*annotation)}
	for _, f := range p.Files {
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				m := annotationRE.FindStringSubmatch(c.Text)
				if m == nil {
					continue
				}
				a := &annotation{
					Pos:       p.Fset.Position(c.Pos()),
					Directive: m[1],
				}
				rest := strings.Fields(strings.TrimSpace(c.Text[len("//lint:")+len(m[1]):]))
				switch a.Directive {
				case "drop":
					// //lint:drop <reason>: suppresses errdrop only.
					a.Analyzer = "errdrop"
					a.Bare = len(rest) == 0
				case "allow":
					// //lint:allow <analyzer> <reason>: both parts required.
					if len(rest) > 0 {
						a.Analyzer = rest[0]
					}
					a.Bare = len(rest) < 2
				}
				s.all = append(s.all, a)
				lines := s.byFile[a.Pos.Filename]
				if lines == nil {
					lines = make(map[int][]*annotation)
					s.byFile[a.Pos.Filename] = lines
				}
				for _, line := range []int{a.Pos.Line, a.Pos.Line + 1} {
					lines[line] = append(lines[line], a)
				}
			}
		}
	}
	return s
}

// suppressed reports whether a reasoned annotation covers the diagnostic and
// marks every matching annotation used.
func (s *suppressions) suppressed(analyzer string, pos token.Position) bool {
	hit := false
	for _, a := range s.byFile[pos.Filename][pos.Line] {
		if a.Bare || a.Analyzer != analyzer {
			continue
		}
		a.Used = true
		hit = true
	}
	return hit
}

// staleDiags reports the package's dead escape hatches after a run: bare
// annotations (which suppress nothing by design), annotations naming no
// analyzer in the suite (typos outlive renames), and reasoned annotations
// whose analyzer ran but produced nothing at the site. Annotations naming a
// suite analyzer outside this run's set are skipped — their liveness is
// unknowable here.
func staleDiags(s *suppressions, inSet, known map[string]bool) []Diagnostic {
	var out []Diagnostic
	for _, a := range s.all {
		d := Diagnostic{Pos: a.Pos, Analyzer: "stalesuppress"}
		switch {
		case a.Bare:
			d.Message = fmt.Sprintf("bare //lint:%s suppresses nothing; name %sthe reason the invariant does not apply here",
				a.Directive, map[string]string{"allow": "the analyzer and "}[a.Directive])
		case !known[a.Analyzer]:
			d.Message = fmt.Sprintf("//lint:%s names %q, which is no analyzer in the suite; it suppresses nothing", a.Directive, a.Analyzer)
		case !inSet[a.Analyzer] || a.Used:
			continue
		default:
			d.Message = fmt.Sprintf("//lint:%s %s no longer suppresses any diagnostic; the invariant holds here, remove the annotation",
				a.Directive, a.Analyzer)
		}
		out = append(out, d)
	}
	return out
}

// diag builds a Diagnostic for a node in a package.
func diag(p *Package, n ast.Node, analyzer, format string, args ...any) Diagnostic {
	return Diagnostic{
		Pos:      p.Fset.Position(n.Pos()),
		Analyzer: analyzer,
		Message:  fmt.Sprintf(format, args...),
	}
}

// pathIn reports whether pkgPath is modPath/<one of rels> (or exactly
// modPath when rels contains "").
func pathIn(pkgPath, modPath string, rels ...string) bool {
	for _, rel := range rels {
		if pkgPath == strings.TrimSuffix(modPath+"/"+rel, "/") {
			return true
		}
	}
	return false
}

// isNamed reports whether t, or the type t points to, is pkg.name for one
// of names.
func isNamed(t types.Type, pkg string, names ...string) bool {
	if ptr, ok := t.(*types.Pointer); ok {
		t = ptr.Elem()
	}
	n, ok := t.(*types.Named)
	return ok && n.Obj().Pkg() != nil && n.Obj().Pkg().Path() == pkg && slices.Contains(names, n.Obj().Name())
}

// underInternal reports whether pkgPath is any internal package of the
// module.
func underInternal(pkgPath, modPath string) bool {
	return strings.HasPrefix(pkgPath, modPath+"/internal/")
}
