// Loader: locates the enclosing module, expands "./..."-style patterns,
// parses packages, and type-checks them with a hybrid importer — module
// paths resolve through the loader itself (no go-command shell-outs, one
// canonical *types.Package per path), everything else through the
// stdlib's from-source importer.

package analysis

import (
	"bufio"
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

// Package is one loaded, type-checked package.
type Package struct {
	// Fset is the loader's shared file set.
	Fset *token.FileSet
	// ImportPath identifies the package in diagnostics and scoping rules.
	ImportPath string
	// Dir is the package's directory.
	Dir string
	// Files are the parsed non-test files (with comments, for
	// lint:ignore directives).
	Files []*ast.File
	// Pkg is the type-checked package (possibly incomplete on errors).
	Pkg *types.Package
	// Info holds expression types, uses, and definitions.
	Info *types.Info
	// TypeErrors collects type-check failures (empty for clean packages).
	TypeErrors []error
}

// Loader parses and type-checks packages of a single module.
type Loader struct {
	// Fset is shared by every package this loader touches.
	Fset *token.FileSet

	modRoot string
	modPath string
	std     types.Importer
	cache   map[string]*Package
	loading map[string]bool
}

// NewLoader builds a loader for the module enclosing dir.
func NewLoader(dir string) (*Loader, error) {
	root, modPath, err := findModule(dir)
	if err != nil {
		return nil, err
	}
	fset := token.NewFileSet()
	return &Loader{
		Fset:    fset,
		modRoot: root,
		modPath: modPath,
		std:     importer.ForCompiler(fset, "source", nil),
		cache:   make(map[string]*Package),
		loading: make(map[string]bool),
	}, nil
}

// ModulePath returns the enclosing module's path (e.g. "viper").
func (l *Loader) ModulePath() string { return l.modPath }

// ModuleRoot returns the directory containing go.mod.
func (l *Loader) ModuleRoot() string { return l.modRoot }

// findModule walks up from dir to the nearest go.mod and reads its
// module path.
func findModule(dir string) (root, modPath string, err error) {
	abs, err := filepath.Abs(dir)
	if err != nil {
		return "", "", err
	}
	for d := abs; ; {
		gomod := filepath.Join(d, "go.mod")
		if _, statErr := os.Stat(gomod); statErr == nil {
			path, perr := readModulePath(gomod)
			if perr != nil {
				return "", "", perr
			}
			return d, path, nil
		}
		parent := filepath.Dir(d)
		if parent == d {
			return "", "", fmt.Errorf("analysis: no go.mod found above %s", abs)
		}
		d = parent
	}
}

func readModulePath(gomod string) (string, error) {
	f, err := os.Open(gomod)
	if err != nil {
		return "", err
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		line := strings.TrimSpace(sc.Text())
		if rest, ok := strings.CutPrefix(line, "module"); ok {
			return strings.Trim(strings.TrimSpace(rest), `"`), nil
		}
	}
	if err := sc.Err(); err != nil {
		return "", err
	}
	return "", fmt.Errorf("analysis: no module directive in %s", gomod)
}

// Import implements types.Importer: module-local paths load through the
// loader (cached, one canonical package object per path); everything
// else falls through to the stdlib source importer.
func (l *Loader) Import(path string) (*types.Package, error) {
	if path == "unsafe" {
		return types.Unsafe, nil
	}
	if path == l.modPath || strings.HasPrefix(path, l.modPath+"/") {
		pkg, err := l.loadModulePath(path)
		if err != nil {
			return nil, err
		}
		if len(pkg.TypeErrors) > 0 {
			return nil, fmt.Errorf("analysis: %s did not type-check: %w", path, pkg.TypeErrors[0])
		}
		return pkg.Pkg, nil
	}
	return l.std.Import(path)
}

func (l *Loader) loadModulePath(path string) (*Package, error) {
	if pkg, ok := l.cache[path]; ok {
		return pkg, nil
	}
	if l.loading[path] {
		return nil, fmt.Errorf("analysis: import cycle through %s", path)
	}
	l.loading[path] = true
	defer delete(l.loading, path)
	dir := l.modRoot
	if path != l.modPath {
		dir = filepath.Join(l.modRoot, filepath.FromSlash(strings.TrimPrefix(path, l.modPath+"/")))
	}
	pkg, err := l.check(dir, path)
	if err != nil {
		return nil, err
	}
	l.cache[path] = pkg
	return pkg, nil
}

// LoadDir parses and type-checks the non-test files of a single
// directory under the given import path. The import path does not need
// to match the directory: golden fixtures use synthetic paths to probe
// path-scoped analyzers. Packages loaded this way are not entered into
// the import cache.
func (l *Loader) LoadDir(dir, importPath string) (*Package, error) {
	return l.check(dir, importPath)
}

func (l *Loader) check(dir, importPath string) (*Package, error) {
	names, err := goFileNames(dir)
	if err != nil {
		return nil, err
	}
	if len(names) == 0 {
		return nil, fmt.Errorf("analysis: no non-test Go files in %s", dir)
	}
	var files []*ast.File
	for _, name := range names {
		f, err := parser.ParseFile(l.Fset, filepath.Join(dir, name), nil, parser.ParseComments)
		if err != nil {
			return nil, err
		}
		files = append(files, f)
	}
	pkg := &Package{
		Fset:       l.Fset,
		ImportPath: importPath,
		Dir:        dir,
		Files:      files,
		Info: &types.Info{
			Types:      make(map[ast.Expr]types.TypeAndValue),
			Defs:       make(map[*ast.Ident]types.Object),
			Uses:       make(map[*ast.Ident]types.Object),
			Selections: make(map[*ast.SelectorExpr]*types.Selection),
		},
	}
	conf := types.Config{
		Importer: l,
		Error:    func(err error) { pkg.TypeErrors = append(pkg.TypeErrors, err) },
	}
	// Check never returns a nil package; errors are collected above.
	pkg.Pkg, _ = conf.Check(importPath, l.Fset, files, pkg.Info)
	return pkg, nil
}

// goFileNames lists the buildable non-test .go files of dir, sorted.
func goFileNames(dir string) ([]string, error) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, err
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

// Load expands patterns ("./...", "dir/...", plain directories) relative
// to the current working directory and loads each matched package. Only
// directories inside the loader's module are accepted.
func (l *Loader) Load(patterns ...string) ([]*Package, error) {
	dirs, err := l.expand(patterns)
	if err != nil {
		return nil, err
	}
	var pkgs []*Package
	for _, dir := range dirs {
		importPath, err := l.importPathFor(dir)
		if err != nil {
			return nil, err
		}
		pkg, err := l.loadModulePath(importPath)
		if err != nil {
			return nil, err
		}
		pkgs = append(pkgs, pkg)
	}
	return pkgs, nil
}

func (l *Loader) importPathFor(dir string) (string, error) {
	rel, err := filepath.Rel(l.modRoot, dir)
	if err != nil || strings.HasPrefix(rel, "..") {
		return "", fmt.Errorf("analysis: %s is outside module %s", dir, l.modPath)
	}
	if rel == "." {
		return l.modPath, nil
	}
	return l.modPath + "/" + filepath.ToSlash(rel), nil
}

func (l *Loader) expand(patterns []string) ([]string, error) {
	seen := make(map[string]bool)
	var dirs []string
	add := func(dir string) {
		abs, err := filepath.Abs(dir)
		if err != nil {
			return
		}
		if !seen[abs] {
			seen[abs] = true
			dirs = append(dirs, abs)
		}
	}
	for _, pat := range patterns {
		if rest, ok := strings.CutSuffix(pat, "..."); ok {
			root := filepath.Clean(rest)
			if root == "" {
				root = "."
			}
			err := filepath.WalkDir(root, func(path string, d os.DirEntry, err error) error {
				if err != nil {
					return err
				}
				if !d.IsDir() {
					return nil
				}
				name := d.Name()
				if path != root && (name == "testdata" || strings.HasPrefix(name, ".") || strings.HasPrefix(name, "_")) {
					return filepath.SkipDir
				}
				names, err := goFileNames(path)
				if err != nil {
					return err
				}
				if len(names) > 0 {
					add(path)
				}
				return nil
			})
			if err != nil {
				return nil, err
			}
			continue
		}
		names, err := goFileNames(filepath.Clean(pat))
		if err != nil {
			return nil, fmt.Errorf("analysis: pattern %q: %w", pat, err)
		}
		if len(names) == 0 {
			return nil, fmt.Errorf("analysis: pattern %q matched no Go files", pat)
		}
		add(filepath.Clean(pat))
	}
	sort.Strings(dirs)
	return dirs, nil
}
