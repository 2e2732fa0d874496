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
	"slices"
	"strings"
)

// File is one parsed source file of a loaded package.
type File struct {
	AST  *ast.File
	Name string // filename as shown in diagnostics (relative to module root)
	Test bool   // true for *_test.go files
}

// Package is one type-checked package ready for analysis. Test files of the
// package (both in-package and external "_test" packages) are loaded as part
// of the same logical Package so analyzers can reason about them, with
// File.Test distinguishing them.
type Package struct {
	Path   string // import path, e.g. "gapbench/internal/gap"
	Module string // module path, e.g. "gapbench"
	Dir    string // absolute directory ("" for in-memory fixtures)
	Fset   *token.FileSet
	Files  []*File
	Types  *types.Package
	Info   *types.Info
	// TypeErrors collects type-checking problems. The loader is deliberately
	// tolerant: gapvet is not a compiler (go build gates compilation), and
	// test fixtures are allowed to be broken in interesting ways.
	TypeErrors []error
}

// Loader loads and type-checks packages of one module using only the
// standard library: module-internal import paths are mapped onto the module
// tree and type-checked from source; everything else (the standard library)
// is delegated to go/importer's "source" importer.
type Loader struct {
	Root   string // absolute module root
	Module string // module path from go.mod
	Fset   *token.FileSet

	std     types.Importer
	cache   map[string]*types.Package
	loading map[string]bool
}

// NewLoader creates a loader rooted at the directory containing go.mod.
func NewLoader(root string) (*Loader, error) {
	abs, err := filepath.Abs(root)
	if err != nil {
		return nil, err
	}
	mod, err := modulePath(filepath.Join(abs, "go.mod"))
	if err != nil {
		return nil, err
	}
	fset := token.NewFileSet()
	return &Loader{
		Root:    abs,
		Module:  mod,
		Fset:    fset,
		std:     importer.ForCompiler(fset, "source", nil),
		cache:   map[string]*types.Package{},
		loading: map[string]bool{},
	}, nil
}

// FindModuleRoot walks up from dir (or the working directory when dir is
// empty) to the nearest directory containing a go.mod.
func FindModuleRoot(dir string) (string, error) {
	if dir == "" {
		wd, err := os.Getwd()
		if err != nil {
			return "", err
		}
		dir = wd
	}
	dir, err := filepath.Abs(dir)
	if err != nil {
		return "", err
	}
	for {
		if _, err := os.Stat(filepath.Join(dir, "go.mod")); err == nil {
			return dir, nil
		}
		parent := filepath.Dir(dir)
		if parent == dir {
			return "", fmt.Errorf("no go.mod found above %s", dir)
		}
		dir = parent
	}
}

// modulePath extracts the module directive from a go.mod file.
func modulePath(gomod string) (string, error) {
	data, err := os.ReadFile(gomod)
	if err != nil {
		return "", fmt.Errorf("reading go.mod: %w", err)
	}
	for _, line := range strings.Split(string(data), "\n") {
		line = strings.TrimSpace(line)
		if rest, ok := strings.CutPrefix(line, "module"); ok {
			return strings.Trim(strings.TrimSpace(rest), `"`), nil
		}
	}
	return "", fmt.Errorf("no module directive in %s", gomod)
}

// Import implements types.Importer. Module-internal paths are loaded from
// the module tree (non-test files only, mirroring what a real build would
// import); all other paths go to the standard-library source importer.
func (l *Loader) Import(path string) (*types.Package, error) {
	if path == l.Module || strings.HasPrefix(path, l.Module+"/") {
		return l.importInternal(path)
	}
	return l.std.Import(path)
}

// importInternal type-checks a module-internal package for use as an import.
func (l *Loader) importInternal(path string) (*types.Package, error) {
	if pkg, ok := l.cache[path]; ok {
		return pkg, nil
	}
	if l.loading[path] {
		return nil, fmt.Errorf("import cycle through %s", path)
	}
	l.loading[path] = true
	defer delete(l.loading, path)

	dir := l.Root
	if rel := strings.TrimPrefix(path, l.Module); rel != "" {
		dir = filepath.Join(l.Root, filepath.FromSlash(strings.TrimPrefix(rel, "/")))
	}
	files, err := l.parseDir(dir, false)
	if err != nil {
		return nil, err
	}
	if len(files) == 0 {
		return nil, fmt.Errorf("no Go files in %s", dir)
	}
	conf := types.Config{Importer: l, Error: func(error) {}}
	asts := make([]*ast.File, len(files))
	for i, f := range files {
		asts[i] = f.AST
	}
	pkg, err := conf.Check(path, l.Fset, asts, nil)
	if err != nil && pkg == nil {
		return nil, err
	}
	l.cache[path] = pkg
	return pkg, nil
}

// parseDir parses the .go files of one directory (sorted for determinism),
// optionally including test files.
func (l *Loader) parseDir(dir string, includeTests bool) ([]*File, error) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, err
	}
	var names []string
	for _, e := range entries {
		name := e.Name()
		if e.IsDir() || !strings.HasSuffix(name, ".go") || strings.HasPrefix(name, ".") || strings.HasPrefix(name, "_") {
			continue
		}
		if !includeTests && strings.HasSuffix(name, "_test.go") {
			continue
		}
		names = append(names, name)
	}
	slices.Sort(names)
	var files []*File
	for _, name := range names {
		full := filepath.Join(dir, name)
		src, err := os.ReadFile(full)
		if err != nil {
			return nil, err
		}
		// Parse under the root-relative display name so diagnostics are
		// stable regardless of the working directory.
		f, err := parser.ParseFile(l.Fset, l.display(full), src, parser.ParseComments)
		if err != nil {
			return nil, err
		}
		files = append(files, &File{AST: f, Name: l.display(full), Test: strings.HasSuffix(name, "_test.go")})
	}
	return files, nil
}

// display renders a path relative to the module root with forward slashes,
// the stable form used in diagnostics.
func (l *Loader) display(path string) string {
	if rel, err := filepath.Rel(l.Root, path); err == nil && !strings.HasPrefix(rel, "..") {
		return filepath.ToSlash(rel)
	}
	return filepath.ToSlash(path)
}

// pathFor derives the import path of a directory inside the module.
func (l *Loader) pathFor(dir string) string {
	rel, err := filepath.Rel(l.Root, dir)
	if err != nil || rel == "." {
		return l.Module
	}
	return l.Module + "/" + filepath.ToSlash(rel)
}

// LoadDir loads one directory as a Package: its primary package plus any
// external "_test" package files, all under the directory's import path.
func (l *Loader) LoadDir(dir string) (*Package, error) {
	abs, err := filepath.Abs(dir)
	if err != nil {
		return nil, err
	}
	files, err := l.parseDir(abs, true)
	if err != nil {
		return nil, err
	}
	if len(files) == 0 {
		return nil, nil
	}
	return l.check(l.pathFor(abs), abs, files)
}

// LoadSource loads an in-memory package fixture: a map of file name to Go
// source, type-checked under the given import path. Fixture files may import
// real packages of the module (resolved against the loader's root).
func (l *Loader) LoadSource(importPath string, sources map[string]string) (*Package, error) {
	var names []string
	for name := range sources {
		names = append(names, name)
	}
	slices.Sort(names)
	var files []*File
	for _, name := range names {
		f, err := parser.ParseFile(l.Fset, name, sources[name], parser.ParseComments)
		if err != nil {
			return nil, err
		}
		files = append(files, &File{AST: f, Name: name, Test: strings.HasSuffix(name, "_test.go")})
	}
	return l.check(importPath, "", files)
}

// check type-checks a group of files as one logical Package. External test
// files (package foo_test) are type-checked as a second unit so the mixed
// group still resolves, but analyzers see a single Package.
func (l *Loader) check(importPath, dir string, files []*File) (*Package, error) {
	pkg := &Package{
		Path:   importPath,
		Module: l.Module,
		Dir:    dir,
		Fset:   l.Fset,
		Files:  files,
		Info: &types.Info{
			Types: map[ast.Expr]types.TypeAndValue{},
			Defs:  map[*ast.Ident]types.Object{},
			Uses:  map[*ast.Ident]types.Object{},
		},
	}
	// Split in-package files (package foo, including foo's in-package tests)
	// from external test files (package foo_test).
	var primary, external []*ast.File
	for _, f := range files {
		if strings.HasSuffix(f.AST.Name.Name, "_test") {
			external = append(external, f.AST)
		} else {
			primary = append(primary, f.AST)
		}
	}
	conf := types.Config{
		Importer: l,
		Error:    func(err error) { pkg.TypeErrors = append(pkg.TypeErrors, err) },
	}
	if len(primary) > 0 {
		tpkg, _ := conf.Check(importPath, l.Fset, primary, pkg.Info)
		pkg.Types = tpkg
	}
	if len(external) > 0 {
		// The external test package imports the primary one by path; make the
		// just-checked primary visible to it (test files of the same dir see
		// the version that includes in-package test files).
		if pkg.Types != nil {
			l.cache[importPath] = pkg.Types
		}
		conf.Check(importPath+"_test", l.Fset, external, pkg.Info)
	}
	return pkg, nil
}

// Load expands the given patterns ("./...", directories, or module import
// paths) and loads every matching package. It skips testdata, hidden, and
// vendor directories, mirroring the go tool.
func (l *Loader) Load(patterns []string) ([]*Package, error) {
	if len(patterns) == 0 {
		patterns = []string{"./..."}
	}
	var dirs []string
	seen := map[string]bool{}
	add := func(dir string) {
		if !seen[dir] {
			seen[dir] = true
			dirs = append(dirs, dir)
		}
	}
	for _, pat := range patterns {
		switch {
		case pat == "./..." || pat == "...":
			if err := walkGoDirs(l.Root, add); err != nil {
				return nil, err
			}
		case strings.HasSuffix(pat, "/..."):
			base := strings.TrimSuffix(pat, "/...")
			base = strings.TrimPrefix(base, l.Module+"/")
			if !filepath.IsAbs(base) {
				base = filepath.Join(l.Root, filepath.FromSlash(strings.TrimPrefix(base, "./")))
			}
			if err := walkGoDirs(base, add); err != nil {
				return nil, err
			}
		default:
			dir := strings.TrimPrefix(pat, l.Module+"/")
			if !filepath.IsAbs(dir) {
				dir = filepath.Join(l.Root, filepath.FromSlash(strings.TrimPrefix(dir, "./")))
			}
			add(dir)
		}
	}
	var pkgs []*Package
	for _, dir := range dirs {
		pkg, err := l.LoadDir(dir)
		if err != nil {
			return nil, fmt.Errorf("loading %s: %w", dir, err)
		}
		if pkg != nil {
			pkgs = append(pkgs, pkg)
		}
	}
	return pkgs, nil
}

// walkGoDirs calls add for every directory under root that contains .go
// files, skipping testdata, vendor, hidden and _-prefixed directories, and
// nested modules (a directory below root with its own go.mod belongs to
// another module, as it does for the go tool's ./... pattern).
func walkGoDirs(root string, add func(string)) error {
	return filepath.WalkDir(root, func(path string, d os.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if path == root {
				return nil
			}
			name := d.Name()
			if name == "testdata" || name == "vendor" || strings.HasPrefix(name, ".") || strings.HasPrefix(name, "_") {
				return filepath.SkipDir
			}
			if _, err := os.Stat(filepath.Join(path, "go.mod")); err == nil {
				return filepath.SkipDir
			}
			return nil
		}
		if strings.HasSuffix(path, ".go") {
			add(filepath.Dir(path))
		}
		return nil
	})
}
