package analyzers

// This file loads the module the typed, inter and dim tiers share:
// every package type-checked once with the standard library's own
// machinery (go/types plus the go/importer source importer; still zero
// external dependencies). RunModule then runs any selection of those
// tiers' analyzers over the one Module.
//
// Module-local import paths are resolved by mapping them onto
// directories under the module root and type-checking recursively;
// everything else (the standard library) is loaded from GOROOT source
// by importer.ForCompiler(fset, "source", nil).

import (
	"fmt"
	"go/ast"
	"go/importer"
	"go/token"
	"go/types"
	"os"
	"path/filepath"
	"sort"
	"strings"
)

// TypedPackage is one type-checked package: the parsed syntax plus the
// go/types object and the expression-type tables the typed analyzers
// query. The syntactic tier's packages leave Types and Info nil.
type TypedPackage struct {
	*Package
	Types *types.Package
	Info  *types.Info
}

// Module is a type-checked view of one Go module, loaded without the go
// command: local import paths map onto directories under Root, the
// standard library comes from GOROOT source.
type Module struct {
	Root string // absolute module root (directory of go.mod)
	Path string // module path declared in go.mod
	Fset *token.FileSet

	pkgs    map[string]*TypedPackage // by import path, load order in dirs
	order   []string                 // deterministic iteration order
	loading map[string]bool          // cycle guard
	std     types.Importer           // GOROOT source importer
}

// Import implements types.Importer: module-local paths load (and cache)
// from the tree; everything else delegates to the source importer.
func (m *Module) Import(path string) (*types.Package, error) {
	if m.local(path) {
		tp, err := m.load(path)
		if err != nil {
			return nil, err
		}
		return tp.Types, nil
	}
	return m.std.Import(path)
}

func (m *Module) local(path string) bool {
	return path == m.Path || strings.HasPrefix(path, m.Path+"/")
}

func (m *Module) dirOf(path string) string {
	if path == m.Path {
		return m.Root
	}
	return filepath.Join(m.Root, filepath.FromSlash(strings.TrimPrefix(path, m.Path+"/")))
}

func (m *Module) load(path string) (*TypedPackage, error) {
	if tp, ok := m.pkgs[path]; ok {
		return tp, nil
	}
	if m.loading[path] {
		return nil, fmt.Errorf("import cycle through %s", path)
	}
	m.loading[path] = true
	defer delete(m.loading, path)

	pkg, err := loadPackage(m.Fset, m.dirOf(path))
	if err != nil {
		return nil, err
	}
	if pkg == nil {
		return nil, fmt.Errorf("no Go files in %s", m.dirOf(path))
	}
	info := &types.Info{
		Types:      make(map[ast.Expr]types.TypeAndValue),
		Defs:       make(map[*ast.Ident]types.Object),
		Uses:       make(map[*ast.Ident]types.Object),
		Selections: make(map[*ast.SelectorExpr]*types.Selection),
		Implicits:  make(map[ast.Node]types.Object),
	}
	conf := types.Config{Importer: m, FakeImportC: true}
	tpkg, err := conf.Check(path, m.Fset, pkg.Files, info)
	if err != nil {
		return nil, fmt.Errorf("type-check %s: %w", path, err)
	}
	tp := &TypedPackage{Package: pkg, Types: tpkg, Info: info}
	m.pkgs[path] = tp
	m.order = append(m.order, path)
	return tp, nil
}

// Packages returns the loaded module-local packages in deterministic
// (load) order.
func (m *Module) Packages() []*TypedPackage {
	out := make([]*TypedPackage, 0, len(m.order))
	for _, path := range m.order {
		out = append(out, m.pkgs[path])
	}
	return out
}

// readModulePath extracts the module path from root/go.mod.
func readModulePath(root string) (string, error) {
	data, err := os.ReadFile(filepath.Join(root, "go.mod"))
	if err != nil {
		return "", err
	}
	for _, line := range strings.Split(string(data), "\n") {
		line = strings.TrimSpace(line)
		if rest, ok := strings.CutPrefix(line, "module"); ok {
			return strings.TrimSpace(rest), nil
		}
	}
	return "", fmt.Errorf("no module directive in %s/go.mod", root)
}

// modulePackageDirs walks root collecting every directory that holds
// non-test Go files, as module-relative slash paths ("." for the root
// package). testdata, dot-directories and nested modules (directories
// with their own go.mod) are skipped, as the go tool does.
func modulePackageDirs(root string) ([]string, error) {
	var dirs []string
	err := filepath.WalkDir(root, func(path string, d os.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if path == root {
				return nil
			}
			name := d.Name()
			if name == "testdata" || strings.HasPrefix(name, ".") || strings.HasPrefix(name, "_") {
				return filepath.SkipDir
			}
			if _, err := os.Stat(filepath.Join(path, "go.mod")); err == nil {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(d.Name(), ".go") || strings.HasSuffix(d.Name(), "_test.go") {
			return nil
		}
		rel, err := filepath.Rel(root, filepath.Dir(path))
		if err != nil {
			return err
		}
		rel = filepath.ToSlash(rel)
		if len(dirs) == 0 || dirs[len(dirs)-1] != rel {
			dirs = append(dirs, rel)
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	sort.Strings(dirs)
	return dirs, nil
}

// LoadTypedModule type-checks every package of the module rooted at
// root. It fails on the first package that does not compile: the typed
// tier only makes sense over a real, building tree (fixtures that never
// compile belong to the syntactic tier).
func LoadTypedModule(root string) (*Module, error) {
	root, err := filepath.Abs(root)
	if err != nil {
		return nil, err
	}
	modPath, err := readModulePath(root)
	if err != nil {
		return nil, err
	}
	fset := token.NewFileSet()
	m := &Module{
		Root:    root,
		Path:    modPath,
		Fset:    fset,
		pkgs:    make(map[string]*TypedPackage),
		loading: make(map[string]bool),
		std:     importer.ForCompiler(fset, "source", nil),
	}
	dirs, err := modulePackageDirs(root)
	if err != nil {
		return nil, err
	}
	for _, rel := range dirs {
		path := modPath
		if rel != "." {
			path = modPath + "/" + rel
		}
		if _, err := m.load(path); err != nil {
			return nil, err
		}
	}
	return m, nil
}
