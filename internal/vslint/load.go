package vslint

import (
	"fmt"
	"go/ast"
	"go/build"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"os"
	"path/filepath"
	"sort"
	"strings"
)

// Package is one type-checked package of the module under analysis.
type Package struct {
	// ImportPath is the full import path (module path + relative dir).
	ImportPath string
	// Dir is the absolute directory holding the package sources.
	Dir string
	// Fset is the shared file set of the whole load.
	Fset *token.FileSet
	// Files are the parsed non-test files, build-constraint filtered.
	Files []*ast.File
	// Types and Info are the go/types results for Files.
	Types *types.Package
	Info  *types.Info
}

// Module is a loaded, type-checked Go module.
type Module struct {
	// Root is the absolute directory containing go.mod.
	Root string
	// Path is the module path declared in go.mod.
	Path string
	// Fset is shared by every package (and by source-imported stdlib).
	Fset *token.FileSet
	// Pkgs lists all module packages in dependency (topological) order.
	Pkgs []*Package

	byPath map[string]*Package
}

// FindModuleRoot walks up from dir to the nearest directory containing
// go.mod.
func FindModuleRoot(dir string) (string, error) {
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
			return "", fmt.Errorf("vslint: no go.mod found above %s", dir)
		}
		dir = parent
	}
}

// modulePath extracts the module path from go.mod contents.
func modulePath(gomod []byte) string {
	for _, line := range strings.Split(string(gomod), "\n") {
		line = strings.TrimSpace(line)
		if rest, ok := strings.CutPrefix(line, "module"); ok {
			return strings.Trim(strings.TrimSpace(rest), `"`)
		}
	}
	return ""
}

// parsedPkg is a package after parsing, before type checking.
type parsedPkg struct {
	importPath string
	dir        string
	files      []*ast.File
	names      []string
	deps       []string // module-internal import paths
}

// LoadModule parses and type-checks every package of the module rooted at
// root, stopping at nested modules. Test files (*_test.go) are excluded:
// the analyzers guard production code, and external test packages would
// complicate the import graph.
// Build constraints are honoured for the host platform via go/build.
//
// Dependencies outside the module are resolved by the stdlib source
// importer (honouring the repo's stdlib-only rule: no x/tools).
func LoadModule(root string) (*Module, error) {
	root, err := filepath.Abs(root)
	if err != nil {
		return nil, err
	}
	gomod, err := os.ReadFile(filepath.Join(root, "go.mod"))
	if err != nil {
		return nil, fmt.Errorf("vslint: %w", err)
	}
	modPath := modulePath(gomod)
	if modPath == "" {
		return nil, fmt.Errorf("vslint: no module directive in %s/go.mod", root)
	}

	fset := token.NewFileSet()
	parsed := map[string]*parsedPkg{}
	err = filepath.WalkDir(root, func(path string, d os.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if !d.IsDir() {
			return nil
		}
		name := d.Name()
		if path != root && (strings.HasPrefix(name, ".") || strings.HasPrefix(name, "_") ||
			name == "vendor" || name == "testdata") {
			return filepath.SkipDir
		}
		// A directory with its own go.mod is another module, which
		// `go build ./...` skips too (e.g. benchmark/).
		if path != root {
			if _, err := os.Stat(filepath.Join(path, "go.mod")); err == nil {
				return filepath.SkipDir
			}
		}
		pkg, err := parseDir(fset, root, modPath, path)
		if err != nil {
			return err
		}
		if pkg != nil {
			parsed[pkg.importPath] = pkg
		}
		return nil
	})
	if err != nil {
		return nil, err
	}

	order, err := topoSort(parsed)
	if err != nil {
		return nil, err
	}

	m := &Module{Root: root, Path: modPath, Fset: fset, byPath: map[string]*Package{}}
	imp := &moduleImporter{
		mod: m,
		src: importer.ForCompiler(fset, "source", nil),
	}
	for _, pp := range order {
		var typeErrs []error
		conf := types.Config{
			Importer: imp,
			Error:    func(err error) { typeErrs = append(typeErrs, err) },
		}
		info := &types.Info{
			Types:      map[ast.Expr]types.TypeAndValue{},
			Defs:       map[*ast.Ident]types.Object{},
			Uses:       map[*ast.Ident]types.Object{},
			Selections: map[*ast.SelectorExpr]*types.Selection{},
			Scopes:     map[ast.Node]*types.Scope{},
			Implicits:  map[ast.Node]types.Object{},
		}
		tpkg, _ := conf.Check(pp.importPath, fset, pp.files, info)
		if len(typeErrs) > 0 {
			return nil, fmt.Errorf("vslint: type-checking %s: %w", pp.importPath, typeErrs[0])
		}
		p := &Package{
			ImportPath: pp.importPath,
			Dir:        pp.dir,
			Fset:       fset,
			Files:      pp.files,
			Types:      tpkg,
			Info:       info,
		}
		m.Pkgs = append(m.Pkgs, p)
		m.byPath[p.ImportPath] = p
	}
	return m, nil
}

// parseDir parses the buildable non-test files of one directory; it returns
// nil if the directory holds no buildable Go files.
func parseDir(fset *token.FileSet, root, modPath, dir string) (*parsedPkg, error) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, err
	}
	rel, err := filepath.Rel(root, dir)
	if err != nil {
		return nil, err
	}
	importPath := modPath
	if rel != "." {
		importPath = modPath + "/" + filepath.ToSlash(rel)
	}
	pkg := &parsedPkg{importPath: importPath, dir: dir}
	depSet := map[string]bool{}
	for _, e := range entries {
		name := e.Name()
		if e.IsDir() || !strings.HasSuffix(name, ".go") || strings.HasSuffix(name, "_test.go") ||
			strings.HasPrefix(name, ".") || strings.HasPrefix(name, "_") {
			continue
		}
		// go/build applies //go:build constraints and GOOS/GOARCH file
		// suffixes for the host platform.
		if match, err := build.Default.MatchFile(dir, name); err != nil || !match {
			continue
		}
		f, err := parser.ParseFile(fset, filepath.Join(dir, name), nil, parser.ParseComments)
		if err != nil {
			return nil, fmt.Errorf("vslint: %w", err)
		}
		pkg.files = append(pkg.files, f)
		pkg.names = append(pkg.names, name)
		for _, imp := range f.Imports {
			path := strings.Trim(imp.Path.Value, `"`)
			if path == modPath || strings.HasPrefix(path, modPath+"/") {
				depSet[path] = true
			}
		}
	}
	if len(pkg.files) == 0 {
		return nil, nil
	}
	for d := range depSet {
		pkg.deps = append(pkg.deps, d)
	}
	sort.Strings(pkg.deps)
	return pkg, nil
}

// topoSort orders packages so every package follows its module-internal
// dependencies.
func topoSort(pkgs map[string]*parsedPkg) ([]*parsedPkg, error) {
	const (
		white = iota
		gray
		black
	)
	state := map[string]int{}
	var order []*parsedPkg
	var visit func(path string) error
	visit = func(path string) error {
		pkg, ok := pkgs[path]
		if !ok {
			return nil // import of a module path not present (should not happen)
		}
		switch state[path] {
		case gray:
			return fmt.Errorf("vslint: import cycle through %s", path)
		case black:
			return nil
		}
		state[path] = gray
		for _, d := range pkg.deps {
			if err := visit(d); err != nil {
				return err
			}
		}
		state[path] = black
		order = append(order, pkg)
		return nil
	}
	paths := make([]string, 0, len(pkgs))
	for p := range pkgs {
		paths = append(paths, p)
	}
	sort.Strings(paths)
	for _, p := range paths {
		if err := visit(p); err != nil {
			return nil, err
		}
	}
	return order, nil
}

// moduleImporter resolves module-internal imports from the already-checked
// packages and everything else through the stdlib source importer.
type moduleImporter struct {
	mod *Module
	src types.Importer
}

func (mi *moduleImporter) Import(path string) (*types.Package, error) {
	if path == mi.mod.Path || strings.HasPrefix(path, mi.mod.Path+"/") {
		if p, ok := mi.mod.byPath[path]; ok {
			return p.Types, nil
		}
		return nil, fmt.Errorf("vslint: internal package %s not loaded (cycle or missing dir)", path)
	}
	return mi.src.Import(path)
}

// Match resolves command-line package patterns ("./...", "./internal/foo",
// "./internal/...") against the module's packages. An empty pattern list
// means "./...".
func (m *Module) Match(patterns []string) ([]*Package, error) {
	if len(patterns) == 0 {
		patterns = []string{"./..."}
	}
	var out []*Package
	seen := map[string]bool{}
	for _, pat := range patterns {
		pat = filepath.ToSlash(pat)
		pat = strings.TrimPrefix(pat, "./")
		if pat == "" {
			pat = "."
		}
		matched := false
		for _, p := range m.Pkgs {
			rel := strings.TrimPrefix(strings.TrimPrefix(p.ImportPath, m.Path), "/")
			if rel == "" {
				rel = "."
			}
			var ok bool
			switch {
			case pat == "..." || pat == ".":
				ok = pat == "..." || rel == "."
			case strings.HasSuffix(pat, "/..."):
				prefix := strings.TrimSuffix(pat, "/...")
				ok = rel == prefix || strings.HasPrefix(rel, prefix+"/")
			default:
				ok = rel == pat || p.ImportPath == pat
			}
			if ok && !seen[p.ImportPath] {
				seen[p.ImportPath] = true
				out = append(out, p)
				matched = true
			} else if ok {
				matched = true
			}
		}
		if !matched {
			return nil, fmt.Errorf("vslint: pattern %q matched no packages", pat)
		}
	}
	return out, nil
}
