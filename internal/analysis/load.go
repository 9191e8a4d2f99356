package analysis

import (
	"fmt"
	"go/ast"
	"go/build"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"io"
	"io/fs"
	"maps"
	"os"
	"os/exec"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
)

// Package is one loaded, typechecked module package: its syntax, its type
// information and enough position context to report findings against it.
type Package struct {
	Path      string // import path within the module
	Dir       string // absolute directory
	Files     []*ast.File
	Filenames []string // parallel to Files
	Types     *types.Package
	Info      *types.Info

	imports  []string // import paths (load ordering)
	referrer bool     // declared by a nested referrer module
}

// Module is a fully loaded module: every non-test package, parsed with
// comments and typechecked from source. Standard-library dependencies are
// resolved through compiler export data (`go list -export`), so the loader
// needs only the go toolchain already required to build the module — no
// x/tools, no third-party loader.
//
// A nested module whose go.mod replaces this module's path with its root
// (`replace pcsmon => ../`) can import the module's internal packages, so
// its non-test packages are loaded too, as Referrers: their references
// count toward keeping exported names alive, but no analyzer reports on
// them.
type Module struct {
	Path      string // module path from go.mod
	Dir       string // module root (directory containing go.mod)
	Fset      *token.FileSet
	Packages  []*Package // dependency order: imports precede importers
	Referrers []*Package // nested replace-module packages, dependency order

	byPath map[string]*Package
	nested []string // roots of the nested referrer modules
	funcs  map[*types.Func]*FuncSource
}

// FuncSource locates the syntax of a module function: the declaration and
// the package whose type information covers it.
type FuncSource struct {
	Decl *ast.FuncDecl
	Pkg  *Package
}

// FuncDecl returns the syntax of a function object declared in the module,
// or nil when the object is foreign (stdlib), interface-abstract or
// body-less.
func (m *Module) FuncDecl(fn *types.Func) *FuncSource { return m.funcs[fn] }

// LoadModule discovers, parses and typechecks every non-test package of the
// module rooted at dir. Build constraints are honoured through go/build's
// default context, test files and testdata trees are excluded, and
// generated files are loaded (so the suppression scanner sees them) but
// flagged via IsGenerated for analyzers that want to skip them.
func LoadModule(dir string) (*Module, error) {
	dir, err := filepath.Abs(dir)
	if err != nil {
		return nil, fmt.Errorf("analysis: resolving %q: %w", dir, err)
	}
	modPath, err := modulePath(filepath.Join(dir, "go.mod"))
	if err != nil {
		return nil, err
	}
	m := &Module{
		Path:   modPath,
		Dir:    dir,
		Fset:   token.NewFileSet(),
		byPath: make(map[string]*Package),
		funcs:  make(map[*types.Func]*FuncSource),
	}
	if err := m.discover(m.Dir, m.Path, false); err != nil {
		return nil, err
	}
	exports, err := exportData(dir)
	if err != nil {
		return nil, err
	}
	for _, nd := range m.nested {
		nestedPath, err := modulePath(filepath.Join(nd, "go.mod"))
		if err != nil {
			return nil, err
		}
		if err := m.discover(nd, nestedPath, true); err != nil {
			return nil, err
		}
		more, err := exportData(nd)
		if err != nil {
			return nil, err
		}
		maps.Copy(exports, more)
	}
	if err := m.typecheck(exports); err != nil {
		return nil, err
	}
	m.indexFuncs()
	return m, nil
}

// modulePath extracts the module path from a go.mod file.
func modulePath(gomod string) (string, error) {
	data, err := os.ReadFile(gomod)
	if err != nil {
		return "", fmt.Errorf("analysis: %w", err)
	}
	for _, line := range strings.Split(string(data), "\n") {
		line = strings.TrimSpace(line)
		if rest, ok := strings.CutPrefix(line, "module"); ok {
			if p := unquote(strings.TrimSpace(rest)); p != "" {
				return p, nil
			}
		}
	}
	return "", fmt.Errorf("analysis: no module line in %s", gomod)
}

func unquote(s string) string {
	if unq, err := strconv.Unquote(s); err == nil {
		return unq
	}
	return s
}

// replacesRoot reports whether the go.mod in dir replaces the module path
// with the module root directory, in a single-line or block replace.
func (m *Module) replacesRoot(dir string) bool {
	data, err := os.ReadFile(filepath.Join(dir, "go.mod"))
	if err != nil {
		return false
	}
	for _, line := range strings.Split(string(data), "\n") {
		old, target, ok := strings.Cut(line, "=>")
		if !ok {
			continue
		}
		oldFields := strings.Fields(strings.TrimPrefix(strings.TrimSpace(old), "replace"))
		targetFields := strings.Fields(target)
		if len(oldFields) == 0 || len(targetFields) != 1 || unquote(oldFields[0]) != m.Path {
			continue
		}
		t := unquote(targetFields[0])
		if !filepath.IsAbs(t) {
			t = filepath.Join(dir, t)
		}
		if filepath.Clean(t) == m.Dir {
			return true
		}
	}
	return false
}

// discover walks one module tree rooted at root, parsing every buildable
// non-test package. Walking the main module records nested modules that
// replace it for loading as referrers; other nested modules are skipped.
func (m *Module) discover(root, modPath string, referrer bool) error {
	return filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if !d.IsDir() {
			return nil
		}
		name := d.Name()
		if path != root && (strings.HasPrefix(name, ".") || strings.HasPrefix(name, "_") ||
			name == "testdata" || name == "vendor") {
			return filepath.SkipDir
		}
		if path != root {
			// A nested module is not part of this one.
			if _, err := os.Stat(filepath.Join(path, "go.mod")); err == nil {
				if !referrer && m.replacesRoot(path) {
					m.nested = append(m.nested, path)
				}
				return filepath.SkipDir
			}
		}
		return m.loadDir(path, root, modPath, referrer)
	})
}

// loadDir parses the buildable files of one directory, if it holds any.
func (m *Module) loadDir(dir, root, modPath string, referrer bool) error {
	bp, err := build.Default.ImportDir(dir, 0)
	if err != nil {
		if _, ok := err.(*build.NoGoError); ok {
			return nil
		}
		return fmt.Errorf("analysis: %s: %w", dir, err)
	}
	rel, err := filepath.Rel(root, dir)
	if err != nil {
		return fmt.Errorf("analysis: %w", err)
	}
	ipath := modPath
	if rel != "." {
		ipath = modPath + "/" + filepath.ToSlash(rel)
	}
	pkg := &Package{Path: ipath, Dir: dir, referrer: referrer}
	seen := make(map[string]bool)
	sort.Strings(bp.GoFiles)
	for _, f := range bp.GoFiles {
		fname := filepath.Join(dir, f)
		file, err := parser.ParseFile(m.Fset, fname, nil, parser.ParseComments|parser.SkipObjectResolution)
		if err != nil {
			return fmt.Errorf("analysis: %w", err)
		}
		pkg.Files = append(pkg.Files, file)
		pkg.Filenames = append(pkg.Filenames, fname)
		for _, imp := range file.Imports {
			p, err := strconv.Unquote(imp.Path.Value)
			if err != nil {
				continue
			}
			if !seen[p] {
				seen[p] = true
				pkg.imports = append(pkg.imports, p)
			}
		}
	}
	if referrer {
		m.Referrers = append(m.Referrers, pkg)
	} else {
		m.Packages = append(m.Packages, pkg)
	}
	m.byPath[ipath] = pkg
	return nil
}

// exportData maps import paths to compiler export-data files by asking the
// go tool to (re)build the module's dependency set. With a warm build cache
// — CI runs `go build ./...` first — this is a metadata walk.
func exportData(dir string) (map[string]string, error) {
	cmd := exec.Command("go", "list", "-export", "-deps", "-f", "{{.ImportPath}}\t{{.Export}}", "./...")
	cmd.Dir = dir
	out, err := cmd.Output()
	if err != nil {
		msg := err.Error()
		if ee, ok := err.(*exec.ExitError); ok && len(ee.Stderr) > 0 {
			msg = strings.TrimSpace(string(ee.Stderr))
		}
		return nil, fmt.Errorf("analysis: go list -export: %s", msg)
	}
	exports := make(map[string]string)
	for _, line := range strings.Split(string(out), "\n") {
		path, file, ok := strings.Cut(line, "\t")
		if ok && file != "" {
			exports[path] = file
		}
	}
	return exports, nil
}

// moduleImporter resolves module-local imports to the source-checked
// packages and everything else through gc export data.
type moduleImporter struct {
	m  *Module
	gc types.Importer
}

func (mi *moduleImporter) Import(path string) (*types.Package, error) {
	if path == "unsafe" {
		return types.Unsafe, nil
	}
	if pkg := mi.m.byPath[path]; pkg != nil {
		if pkg.Types == nil {
			return nil, fmt.Errorf("analysis: import cycle or load-order bug at %q", path)
		}
		return pkg.Types, nil
	}
	return mi.gc.Import(path)
}

// typecheck runs go/types over every package in dependency order.
func (m *Module) typecheck(exports map[string]string) error {
	gc := importer.ForCompiler(m.Fset, "gc", func(path string) (io.ReadCloser, error) {
		file, ok := exports[path]
		if !ok {
			return nil, fmt.Errorf("no export data for %q", path)
		}
		return os.Open(file)
	})
	imp := &moduleImporter{m: m, gc: gc}

	order, err := m.depOrder()
	if err != nil {
		return err
	}
	for _, pkg := range order {
		info := &types.Info{
			Types:      make(map[ast.Expr]types.TypeAndValue),
			Defs:       make(map[*ast.Ident]types.Object),
			Uses:       make(map[*ast.Ident]types.Object),
			Selections: make(map[*ast.SelectorExpr]*types.Selection),
			Implicits:  make(map[ast.Node]types.Object),
			Instances:  make(map[*ast.Ident]types.Instance),
		}
		conf := types.Config{Importer: imp}
		tpkg, err := conf.Check(pkg.Path, m.Fset, pkg.Files, info)
		if err != nil {
			return fmt.Errorf("analysis: typecheck %s: %w", pkg.Path, err)
		}
		pkg.Types = tpkg
		pkg.Info = info
	}
	m.Packages, m.Referrers = nil, nil
	for _, pkg := range order {
		if pkg.referrer {
			m.Referrers = append(m.Referrers, pkg)
		} else {
			m.Packages = append(m.Packages, pkg)
		}
	}
	return nil
}

// allPackages returns the module's packages followed by its referrers'.
func (m *Module) allPackages() []*Package {
	return append(append([]*Package(nil), m.Packages...), m.Referrers...)
}

// depOrder topologically sorts the module and referrer packages so loaded
// imports are checked before their importers.
func (m *Module) depOrder() ([]*Package, error) {
	all := m.allPackages()
	sort.Slice(all, func(i, j int) bool { return all[i].Path < all[j].Path })
	const (
		unvisited = 0
		visiting  = 1
		done      = 2
	)
	state := make(map[*Package]int)
	var order []*Package
	var visit func(p *Package) error
	visit = func(p *Package) error {
		switch state[p] {
		case done:
			return nil
		case visiting:
			return fmt.Errorf("analysis: import cycle through %s", p.Path)
		}
		state[p] = visiting
		for _, dep := range p.imports {
			if dp := m.byPath[dep]; dp != nil {
				if err := visit(dp); err != nil {
					return err
				}
			}
		}
		state[p] = done
		order = append(order, p)
		return nil
	}
	for _, p := range all {
		if err := visit(p); err != nil {
			return nil, err
		}
	}
	return order, nil
}

// indexFuncs maps every function and method object to its declaration so
// cross-package call-graph walks (the hotpath analyzer) can find bodies.
func (m *Module) indexFuncs() {
	for _, pkg := range m.Packages {
		for _, file := range pkg.Files {
			for _, decl := range file.Decls {
				fd, ok := decl.(*ast.FuncDecl)
				if !ok {
					continue
				}
				if fn, ok := pkg.Info.Defs[fd.Name].(*types.Func); ok {
					m.funcs[fn] = &FuncSource{Decl: fd, Pkg: pkg}
				}
			}
		}
	}
}

// IsGenerated reports whether the file carries the conventional
// "Code generated ... DO NOT EDIT." marker in its header.
func IsGenerated(file *ast.File) bool {
	for _, cg := range file.Comments {
		if cg.Pos() > file.Package {
			break
		}
		for _, c := range cg.List {
			t := c.Text
			if strings.HasPrefix(t, "// Code generated ") && strings.HasSuffix(t, " DO NOT EDIT.") {
				return true
			}
		}
	}
	return false
}
