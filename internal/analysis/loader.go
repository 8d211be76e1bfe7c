package analysis

import (
	"fmt"
	"go/ast"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"os"
	"path/filepath"
	"sort"
	"strings"
)

// Package is one loaded, type-checked package: the unit analyzers run on.
type Package struct {
	// Path is the import path ("nwade/internal/nwade").
	Path string
	// Dir is the absolute directory the files were read from.
	Dir string
	// Files are the parsed non-test sources, in filename order.
	Files []*ast.File
	// Types and Info carry the go/types results for the files.
	Types *types.Package
	Info  *types.Info
	// Fset positions every node in Files.
	Fset *token.FileSet
}

// Loader parses and type-checks packages of one module without any
// dependency beyond the standard library: module-local import paths are
// resolved against the module root, everything else is type-checked from
// GOROOT source via go/importer.
type Loader struct {
	fset       *token.FileSet
	moduleRoot string
	modulePath string
	pkgs       map[string]*Package // by import path
	loading    map[string]bool     // import-cycle guard
	stdlib     types.ImporterFrom
}

// NewLoader creates a loader rooted at the directory containing go.mod.
func NewLoader(moduleRoot string) (*Loader, error) {
	abs, err := filepath.Abs(moduleRoot)
	if err != nil {
		return nil, err
	}
	modPath, err := modulePathOf(filepath.Join(abs, "go.mod"))
	if err != nil {
		return nil, err
	}
	fset := token.NewFileSet()
	src, ok := importer.ForCompiler(fset, "source", nil).(types.ImporterFrom)
	if !ok {
		return nil, fmt.Errorf("analysis: source importer unavailable")
	}
	return &Loader{
		fset:       fset,
		moduleRoot: abs,
		modulePath: modPath,
		pkgs:       make(map[string]*Package),
		loading:    make(map[string]bool),
		stdlib:     src,
	}, nil
}

// FileSet returns the loader's shared file set, which positions every
// node of every loaded package.
func (l *Loader) FileSet() *token.FileSet { return l.fset }

// Loaded returns every module-local package this loader has
// type-checked so far — requested packages and their module
// dependencies alike — sorted by import path.
func (l *Loader) Loaded() []*Package {
	out := make([]*Package, 0, len(l.pkgs))
	for _, p := range l.pkgs {
		out = append(out, p)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Path < out[j].Path })
	return out
}

// modulePathOf extracts the module path from a go.mod file.
func modulePathOf(gomod string) (string, error) {
	data, err := os.ReadFile(gomod)
	if err != nil {
		return "", fmt.Errorf("analysis: %w", err)
	}
	for _, line := range strings.Split(string(data), "\n") {
		line = strings.TrimSpace(line)
		if rest, ok := strings.CutPrefix(line, "module "); ok {
			return strings.TrimSpace(rest), nil
		}
	}
	return "", fmt.Errorf("analysis: no module directive in %s", gomod)
}

// LoadDir loads the package in dir (absolute or relative to the module
// root). Results are cached per loader.
func (l *Loader) LoadDir(dir string) (*Package, error) {
	abs := dir
	if !filepath.IsAbs(abs) {
		abs = filepath.Join(l.moduleRoot, dir)
	}
	rel, err := filepath.Rel(l.moduleRoot, abs)
	if err != nil || strings.HasPrefix(rel, "..") {
		return nil, fmt.Errorf("analysis: %s is outside module %s", dir, l.moduleRoot)
	}
	path := l.modulePath
	if rel != "." {
		path = l.modulePath + "/" + filepath.ToSlash(rel)
	}
	return l.load(path, abs)
}

// load parses and type-checks one module-local package.
func (l *Loader) load(path, dir string) (*Package, error) {
	if p, ok := l.pkgs[path]; ok {
		return p, nil
	}
	if l.loading[path] {
		return nil, fmt.Errorf("analysis: import cycle through %s", path)
	}
	l.loading[path] = true
	defer delete(l.loading, path)

	names, err := goFilesIn(dir)
	if err != nil {
		return nil, err
	}
	if len(names) == 0 {
		return nil, fmt.Errorf("analysis: no Go files in %s", dir)
	}
	var files []*ast.File
	for _, name := range names {
		f, err := parser.ParseFile(l.fset, filepath.Join(dir, name), nil, parser.ParseComments)
		if err != nil {
			return nil, fmt.Errorf("analysis: %w", err)
		}
		files = append(files, f)
	}
	info := &types.Info{
		Types:      make(map[ast.Expr]types.TypeAndValue),
		Defs:       make(map[*ast.Ident]types.Object),
		Uses:       make(map[*ast.Ident]types.Object),
		Selections: make(map[*ast.SelectorExpr]*types.Selection),
		Implicits:  make(map[ast.Node]types.Object),
		Instances:  make(map[*ast.Ident]types.Instance),
	}
	conf := types.Config{Importer: l}
	tpkg, err := conf.Check(path, l.fset, files, info)
	if err != nil {
		return nil, fmt.Errorf("analysis: type-checking %s: %w", path, err)
	}
	p := &Package{Path: path, Dir: dir, Files: files, Types: tpkg, Info: info, Fset: l.fset}
	l.pkgs[path] = p
	return p, nil
}

// goFilesIn lists the non-test Go files of dir, sorted.
func goFilesIn(dir string) ([]string, error) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, fmt.Errorf("analysis: %w", err)
	}
	var names []string
	for _, e := range entries {
		name := e.Name()
		if e.IsDir() || !strings.HasSuffix(name, ".go") ||
			strings.HasSuffix(name, "_test.go") || strings.HasPrefix(name, ".") || strings.HasPrefix(name, "_") {
			continue
		}
		names = append(names, name)
	}
	sort.Strings(names)
	return names, nil
}

// Import implements types.Importer.
func (l *Loader) Import(path string) (*types.Package, error) {
	return l.ImportFrom(path, l.moduleRoot, 0)
}

// ImportFrom implements types.ImporterFrom: module-local paths load from
// the module tree, anything else from GOROOT source.
func (l *Loader) ImportFrom(path, dir string, mode types.ImportMode) (*types.Package, error) {
	if path == "unsafe" {
		return types.Unsafe, nil
	}
	if path == l.modulePath || strings.HasPrefix(path, l.modulePath+"/") {
		rel := strings.TrimPrefix(strings.TrimPrefix(path, l.modulePath), "/")
		p, err := l.load(path, filepath.Join(l.moduleRoot, filepath.FromSlash(rel)))
		if err != nil {
			return nil, err
		}
		return p.Types, nil
	}
	return l.stdlib.ImportFrom(path, dir, mode)
}

// FindPackages walks the module tree under root (absolute, or relative to
// the module root) and returns the directories containing at least one
// non-test Go file, skipping testdata, hidden, and underscore directories.
func (l *Loader) FindPackages(root string) ([]string, error) {
	abs := root
	if !filepath.IsAbs(abs) {
		abs = filepath.Join(l.moduleRoot, root)
	}
	var dirs []string
	err := filepath.WalkDir(abs, func(path string, d os.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if !d.IsDir() {
			return nil
		}
		name := d.Name()
		if path != abs && (name == "testdata" || strings.HasPrefix(name, ".") || strings.HasPrefix(name, "_")) {
			return filepath.SkipDir
		}
		names, err := goFilesIn(path)
		if err != nil {
			return err
		}
		if len(names) > 0 {
			dirs = append(dirs, path)
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	sort.Strings(dirs)
	return dirs, nil
}
