package lint

import (
	"fmt"
	"go/ast"
	"go/build/constraint"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
)

// ModulePath is this repository's module path; analyzer scoping and
// module-internal import resolution key on it.
const ModulePath = "github.com/lightning-smartnic/lightning"

// Package is one loaded, type-checked package ready for analysis: its
// logical import path (from the directory, or a fixture's "//lintpath
// <path>" directive so analyzers scope to it as if it lived there), the
// directory it was loaded from, the loader's shared position set, its
// non-test files sorted by name, and the go/types results.
type Package struct {
	Path   string
	Dir    string
	Fset   *token.FileSet
	Files  []*ast.File
	Types  *types.Package
	Info   *types.Info
	loader *Loader
}

// Loader parses and type-checks packages of this module using only the
// standard library: module-internal imports are resolved against the module
// tree on disk, everything else (the standard library) through go/importer's
// source importer. No go/packages, no external processes.
type Loader struct {
	Fset *token.FileSet

	root string // module root directory (holds go.mod)
	std  types.ImporterFrom
	// byDir caches loaded packages by cleaned directory path.
	byDir map[string]*Package
	// loading guards against import cycles.
	loading map[string]bool
	// prog caches the reachability walk.
	prog *program
}

// NewLoader builds a loader rooted at the module containing dir (go.mod is
// searched upward).
func NewLoader(dir string) (*Loader, error) {
	abs, err := filepath.Abs(dir)
	if err != nil {
		return nil, err
	}
	root := abs
	for {
		if _, err := os.Stat(filepath.Join(root, "go.mod")); err == nil {
			break
		}
		parent := filepath.Dir(root)
		if parent == root {
			return nil, fmt.Errorf("lint: no go.mod found above %s", abs)
		}
		root = parent
	}
	fset := token.NewFileSet()
	l := &Loader{
		Fset:    fset,
		root:    root,
		byDir:   make(map[string]*Package),
		loading: make(map[string]bool),
	}
	src, ok := importer.ForCompiler(fset, "source", nil).(types.ImporterFrom)
	if !ok {
		return nil, fmt.Errorf("lint: source importer is not an ImporterFrom")
	}
	l.std = src
	return l, nil
}

// Load resolves the given patterns to packages. Supported patterns:
//
//	./...      every package under the module root (testdata skipped)
//	dir/...    every package under dir
//	dir        the single package in dir
//
// Relative patterns resolve against the module root.
func (l *Loader) Load(patterns ...string) ([]*Package, error) {
	var dirs []string
	seen := make(map[string]bool)
	add := func(d string) {
		d = filepath.Clean(d)
		if !seen[d] {
			seen[d] = true
			dirs = append(dirs, d)
		}
	}
	for _, pat := range patterns {
		recursive := false
		if pat == "..." {
			pat, recursive = ".", true
		} else if strings.HasSuffix(pat, "/...") {
			pat, recursive = strings.TrimSuffix(pat, "/..."), true
		}
		if !filepath.IsAbs(pat) {
			pat = filepath.Join(l.root, pat)
		}
		if !recursive {
			add(pat)
			continue
		}
		err := filepath.WalkDir(pat, func(path string, d os.DirEntry, err error) error {
			if err != nil {
				return err
			}
			if !d.IsDir() {
				return nil
			}
			name := d.Name()
			if path != pat && (name == "testdata" || strings.HasPrefix(name, ".") || strings.HasPrefix(name, "_")) {
				return filepath.SkipDir
			}
			if hasGoFiles(path) {
				add(path)
			}
			return nil
		})
		if err != nil {
			return nil, err
		}
	}
	pkgs := make([]*Package, 0, len(dirs))
	for _, dir := range dirs {
		p, err := l.loadDir(dir)
		if err != nil {
			return nil, err
		}
		pkgs = append(pkgs, p)
	}
	return pkgs, nil
}

func hasGoFiles(dir string) bool {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return false
	}
	for _, e := range entries {
		name := e.Name()
		if !e.IsDir() && strings.HasSuffix(name, ".go") && !strings.HasSuffix(name, "_test.go") {
			return true
		}
	}
	return false
}

// loadDir parses and type-checks the package in dir, caching the result.
func (l *Loader) loadDir(dir string) (*Package, error) {
	abs, err := filepath.Abs(dir)
	if err != nil {
		return nil, err
	}
	if p, ok := l.byDir[abs]; ok {
		return p, nil
	}
	if l.loading[abs] {
		return nil, fmt.Errorf("lint: import cycle through %s", abs)
	}
	l.loading[abs] = true
	defer func() { delete(l.loading, abs) }()

	entries, err := os.ReadDir(abs)
	if err != nil {
		return nil, err
	}
	var names []string
	for _, e := range entries {
		name := e.Name()
		if e.IsDir() || !strings.HasSuffix(name, ".go") || strings.HasSuffix(name, "_test.go") {
			continue
		}
		names = append(names, name)
	}
	sort.Strings(names)
	if len(names) == 0 {
		return nil, fmt.Errorf("lint: no Go files in %s", abs)
	}
	var files []*ast.File
	for _, name := range names {
		f, err := parser.ParseFile(l.Fset, filepath.Join(abs, name), nil, parser.ParseComments)
		if err != nil {
			return nil, err
		}
		if !fileIncluded(f) {
			// A //go:build constraint excludes the file from the default
			// build (GOOS/GOARCH tags, or sentinel tags like "ignore");
			// type-checking it alongside the built files would see duplicate
			// declarations that `go build` never compiles together.
			continue
		}
		files = append(files, f)
	}
	if len(files) == 0 {
		return nil, fmt.Errorf("lint: every Go file in %s is excluded by build constraints", abs)
	}
	path := l.logicalPath(abs, files)

	info := &types.Info{
		Types:      make(map[ast.Expr]types.TypeAndValue),
		Defs:       make(map[*ast.Ident]types.Object),
		Uses:       make(map[*ast.Ident]types.Object),
		Selections: make(map[*ast.SelectorExpr]*types.Selection),
	}
	var typeErrs []error
	conf := types.Config{
		Importer: (*loaderImporter)(l),
		Error:    func(err error) { typeErrs = append(typeErrs, err) },
	}
	tpkg, _ := conf.Check(path, l.Fset, files, info)
	if len(typeErrs) > 0 {
		return nil, fmt.Errorf("lint: type-checking %s: %v", path, typeErrs[0])
	}
	p := &Package{Path: path, Dir: abs, Fset: l.Fset, Files: files, Types: tpkg, Info: info, loader: l}
	l.byDir[abs] = p
	return p, nil
}

// fileIncluded reports whether a parsed file survives its //go:build
// constraint (if any, above the package clause) under the running GOOS and
// GOARCH and the gc tag, exactly as `go build` would include it.
func fileIncluded(f *ast.File) bool {
	for _, cg := range f.Comments {
		if cg.Pos() >= f.Package {
			break
		}
		for _, c := range cg.List {
			if !constraint.IsGoBuild(c.Text) {
				continue
			}
			expr, err := constraint.Parse(c.Text)
			if err != nil {
				// An unparseable constraint excludes the file, matching the
				// toolchain's behaviour for malformed //go:build lines.
				return false
			}
			return expr.Eval(func(tag string) bool {
				return tag == runtime.GOOS || tag == runtime.GOARCH || tag == "gc"
			})
		}
	}
	return true
}

// logicalPath derives a package's import path for analyzer scoping: a
// "//lintpath <path>" directive wins (fixtures use it to impersonate the
// package they exercise); otherwise the path follows from the directory's
// position in the module tree.
func (l *Loader) logicalPath(dir string, files []*ast.File) string {
	for _, f := range files {
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				if rest, ok := strings.CutPrefix(c.Text, "//lintpath "); ok {
					if p := strings.TrimSpace(rest); p != "" {
						return p
					}
				}
			}
		}
	}
	rel, err := filepath.Rel(l.root, dir)
	if err != nil || rel == "." {
		return ModulePath
	}
	return ModulePath + "/" + filepath.ToSlash(rel)
}

// loaderImporter adapts Loader to types.ImporterFrom: module-internal paths
// load from the module tree, everything else delegates to the stdlib source
// importer.
type loaderImporter Loader

func (li *loaderImporter) Import(path string) (*types.Package, error) {
	return li.ImportFrom(path, (*Loader)(li).root, 0)
}

func (li *loaderImporter) ImportFrom(path, dir string, mode types.ImportMode) (*types.Package, error) {
	l := (*Loader)(li)
	if path == "unsafe" {
		return types.Unsafe, nil
	}
	if rel, ok := strings.CutPrefix(path, ModulePath); ok {
		rel = strings.TrimPrefix(rel, "/")
		p, err := l.loadDir(filepath.Join(l.root, filepath.FromSlash(rel)))
		if err != nil {
			return nil, err
		}
		return p.Types, nil
	}
	return l.std.ImportFrom(path, dir, mode)
}
