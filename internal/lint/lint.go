// Package lint is Lightning's project-specific static-analysis suite.
//
// The repo's correctness claims rest on invariants the Go compiler cannot
// see: the sharded serve path must stay race-clean (shared counters use
// sync/atomic or sit behind their owning mutex), wire-facing errors must be
// counted rather than silently dropped, and the datapath must not mix
// fixed-point codes with floats without an explicit quantization step.
//
// A second family guards the concurrency lifecycle, where bugs are
// invisible to go build and only probabilistically visible to -race: every
// spawned goroutine must carry a provable shutdown path (goleak), the
// lock-acquisition graph must stay acyclic (lockorder), and the serve path
// must thread its caller's context rather than re-rooting with
// context.Background (ctxflow). Finally, stalesuppress flags escape-hatch
// annotations that no longer suppress anything, so a fixed violation's
// hatch cannot quietly outlive it.
//
// Each analyzer in this package has caught a real bug in the repo's history
// or is the only check that catches a realistic one (DESIGN.md §8 keeps the
// ledger); cmd/lightning-lint runs them all over the module and CI fails on
// any diagnostic. Lock copies are go vet's copylocks check, and the
// zero-allocation hot path is held by the AllocsPerRun guard tests.
//
// The suite is stdlib-only: packages are parsed with go/parser and
// type-checked with go/types (see loader.go), so linting needs nothing
// beyond the Go toolchain.
package lint

import (
	"fmt"
	"go/ast"
	"go/token"
	"regexp"
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
	// import path. Analyzers that guard package-local invariants (e.g.
	// fixedmix's datapath packages) scope themselves here.
	Match func(pkgPath string) bool
	// Run inspects one package and returns its findings.
	Run func(p *Package) []Diagnostic
}

// Analyzers returns the full suite in reporting order.
func Analyzers() []*Analyzer {
	return []*Analyzer{
		AtomicCounter(),
		ErrDrop(),
		FixedMix(),
		GoLeak(),
		LockOrder(),
		CtxFlow(),
		StaleSuppress(),
	}
}

// StaleSuppress is the suppression-hygiene check: a //lint:allow or
// //lint:drop annotation that no longer silences any diagnostic is itself a
// diagnostic, so an escape hatch cannot outlive the violation it excused —
// the suppressed invariant quietly becomes enforceable again the moment the
// code is fixed. Liveness is a property of a whole analyzer run, not of one
// package walk, so the engine (Run) performs the check; this Analyzer exists
// to opt the check into a run and to carry its name and documentation.
// Annotations naming an analyzer outside the run set are left alone — only a
// run that includes the named analyzer can prove an annotation dead.
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
		if a.Pos.Filename != b.Pos.Filename {
			return a.Pos.Filename < b.Pos.Filename
		}
		if a.Pos.Line != b.Pos.Line {
			return a.Pos.Line < b.Pos.Line
		}
		return a.Analyzer < b.Analyzer
	})
	return out
}

// annotation is one parsed //lint:allow or //lint:drop escape hatch.
type annotation struct {
	// Pos locates the annotation comment itself.
	Pos token.Position
	// Directive is "allow" or "drop".
	Directive string
	// Analyzer is the silenced analyzer name ("errdrop" for drop
	// annotations; empty when a bare allow names none).
	Analyzer string
	// Bare marks an annotation with no reason (and, for allow, possibly no
	// analyzer): it suppresses nothing, so every silenced site documents why
	// the invariant does not apply.
	Bare bool
	// Used records whether the annotation silenced at least one diagnostic
	// in this run — the liveness bit the stalesuppress check reads.
	Used bool
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
		if rel == "" {
			if pkgPath == modPath {
				return true
			}
			continue
		}
		if pkgPath == modPath+"/"+rel {
			return true
		}
	}
	return false
}

// underInternal reports whether pkgPath is any internal package of the
// module.
func underInternal(pkgPath, modPath string) bool {
	return strings.HasPrefix(pkgPath, modPath+"/internal/")
}
