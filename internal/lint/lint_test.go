package lint_test

import (
	"flag"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"testing"

	"github.com/lightning-smartnic/lightning/internal/lint"
)

var update = flag.Bool("update", false, "rewrite fixture want.txt golden files")

// sharedLoader is the one loader the fixture and tree tests load through,
// so the standard library is type-checked from source once, not once per
// case. It caches packages by directory; analyzers only read them, so a
// fixture loaded twice is the same package both times.
var sharedLoader = sync.OnceValues(func() (*lint.Loader, error) { return lint.NewLoader(".") })

// loadFixture loads one testdata fixture package.
func loadFixture(t *testing.T, dir string) []*lint.Package {
	t.Helper()
	loader, err := sharedLoader()
	if err != nil {
		t.Fatal(err)
	}
	abs, err := filepath.Abs(dir)
	if err != nil {
		t.Fatal(err)
	}
	pkgs, err := loader.Load(abs)
	if err != nil {
		t.Fatal(err)
	}
	return pkgs
}

// formatDiags renders diagnostics with base filenames, the shape the
// want.txt goldens record.
func formatDiags(diags []lint.Diagnostic) string {
	var b strings.Builder
	for _, d := range diags {
		d.Pos.Filename = filepath.Base(d.Pos.Filename)
		b.WriteString(d.String())
		b.WriteString("\n")
	}
	return b.String()
}

// TestAnalyzerFixtures runs each analyzer over its fixture packages under
// testdata/src/<analyzer>/<case>/ and compares the diagnostics against the
// case's want.txt golden (regenerate with
// `go test ./internal/lint -run TestAnalyzerFixtures -update`). A flagged
// case must draw diagnostics and a clean one none; a mutation case is a
// realistic bug that only the analyzer catches (DESIGN.md §8's ledger), so
// it must draw diagnostics too.
func TestAnalyzerFixtures(t *testing.T) {
	byName := make(map[string]*lint.Analyzer)
	for _, a := range lint.Analyzers() {
		byName[a.Name] = a
	}
	analyzerDirs, err := filepath.Glob(filepath.Join("testdata", "src", "*"))
	if err != nil {
		t.Fatal(err)
	}
	if len(analyzerDirs) != len(byName) {
		t.Errorf("testdata/src has %d analyzer fixture dirs, suite has %d analyzers", len(analyzerDirs), len(byName))
	}
	sort.Strings(analyzerDirs)
	for _, adir := range analyzerDirs {
		name := filepath.Base(adir)
		analyzer := byName[name]
		if analyzer == nil {
			t.Errorf("fixture dir %s names no analyzer", adir)
			continue
		}
		caseDirs, err := filepath.Glob(filepath.Join(adir, "*"))
		if err != nil {
			t.Fatal(err)
		}
		sort.Strings(caseDirs)
		for _, cdir := range caseDirs {
			cname := filepath.Base(cdir)
			t.Run(name+"/"+cname, func(t *testing.T) {
				pkgs := loadFixture(t, cdir)
				set := []*lint.Analyzer{analyzer}
				if name == "stalesuppress" {
					// Staleness is a property of a whole run: an annotation
					// naming analyzer X is only provably dead when X runs.
					// This fixture alone runs under the full suite, so its
					// golden also pins the live diagnostics the stale
					// annotations fail to silence.
					set = lint.Analyzers()
				}
				diags := lint.Run(pkgs, set)
				got := formatDiags(diags)
				wantPath := filepath.Join(cdir, "want.txt")
				if *update {
					if err := os.WriteFile(wantPath, []byte(got), 0o644); err != nil {
						t.Fatal(err)
					}
					return
				}
				wantBytes, err := os.ReadFile(wantPath)
				if err != nil {
					t.Fatalf("missing golden (run with -update to create): %v", err)
				}
				want := string(wantBytes)
				if got != want {
					t.Errorf("diagnostics mismatch\n--- got ---\n%s--- want ---\n%s", got, want)
				}
				switch cname {
				case "flagged", "mutation":
					if len(diags) == 0 {
						t.Error("flagged fixture produced no diagnostics")
					}
				case "clean":
					if len(diags) != 0 {
						t.Errorf("clean fixture produced diagnostics:\n%s", got)
					}
				}
			})
		}
	}
}

// TestFlaggedFixturesFailFullSuite pins the CLI contract: running the whole
// analyzer suite (what cmd/lightning-lint does) over a flagged fixture
// yields a nonzero diagnostic count, i.e. a nonzero exit.
func TestFlaggedFixturesFailFullSuite(t *testing.T) {
	flagged, err := filepath.Glob(filepath.Join("testdata", "src", "*", "flagged"))
	if err != nil {
		t.Fatal(err)
	}
	if len(flagged) == 0 {
		t.Fatal("no flagged fixtures found")
	}
	for _, dir := range flagged {
		pkgs := loadFixture(t, dir)
		if diags := lint.Run(pkgs, lint.Analyzers()); len(diags) == 0 {
			t.Errorf("%s: full suite found nothing; lightning-lint would exit 0", dir)
		}
	}
}

// TestTreeClean pins the repo-wide invariant CI enforces: the full analyzer
// suite finds nothing in the module's own tree.
func TestTreeClean(t *testing.T) {
	if testing.Short() {
		t.Skip("type-checks the whole module; skipped in -short")
	}
	loader, err := sharedLoader()
	if err != nil {
		t.Fatal(err)
	}
	pkgs, err := loader.Load("./...")
	if err != nil {
		t.Fatal(err)
	}
	diags := lint.Run(pkgs, lint.Analyzers())
	for _, d := range diags {
		t.Errorf("%s", d)
	}
}

// TestSuppression pins the annotation escape hatches: a bare annotation
// (no reason) suppresses nothing, a reasoned one silences exactly its
// analyzer, and — with stalesuppress in the suite — the bare annotation and
// the one naming the wrong analyzer are themselves reported as dead.
func TestSuppression(t *testing.T) {
	dir := t.TempDir()
	src := `//lintpath github.com/lightning-smartnic/lightning/internal/sim

package fixture

func bare() {
	//lint:allow goleak
	go func() {}()
}

func reasoned() {
	//lint:allow goleak fixture exercising the escape hatch
	go func() {}()
}

func wrongAnalyzer() {
	//lint:allow lockorder wrong analyzer named
	go func() {}()
}
`
	if err := os.WriteFile(filepath.Join(dir, "fixture.go"), []byte(src), 0o644); err != nil {
		t.Fatal(err)
	}
	pkgs := loadFixture(t, dir)
	diags := lint.Run(pkgs, lint.Analyzers())
	// Four survivors: the two goleak diagnostics the bare and
	// wrong-analyzer annotations fail to silence, plus the stalesuppress
	// reports on those two dead annotations. The reasoned one suppresses its
	// diagnostic and, being live, draws no stale report.
	if len(diags) != 4 {
		t.Fatalf("want 4 diagnostics (2 unsuppressed goleak + 2 stale annotations), got %d:\n%s", len(diags), formatDiags(diags))
	}
	byAnalyzer := map[string]int{}
	for _, d := range diags {
		byAnalyzer[d.Analyzer]++
	}
	if byAnalyzer["goleak"] != 2 || byAnalyzer["stalesuppress"] != 2 {
		t.Fatalf("diagnostic split = %v, want 2 goleak + 2 stalesuppress", byAnalyzer)
	}
}
