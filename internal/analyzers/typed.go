package analyzers

// This file is ctmsvet's second tier: a go/types-backed pass over the
// real, compiling module. The syntactic tier (driver.go) stays as the
// fast path — it runs in milliseconds and works on fixture packages
// that never compile — while this tier type-checks the module with the
// standard library's own machinery (go/types plus the go/importer
// source importer; still zero external dependencies) and feeds the
// dataflow analyzers that need real type identity: mbuflife, locking
// and hotpath.
//
// Module-local import paths are resolved by mapping them onto
// directories under the module root and type-checking recursively;
// everything else (the standard library) is loaded from GOROOT source
// by importer.ForCompiler(fset, "source", nil). Both tiers share the
// Diagnostic type, the //ctmsvet:allow protocol and the sorting rules,
// so cmd/ctmsvet can merge their findings into one report.

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
// query.
type TypedPackage struct {
	*Package
	Types *types.Package
	Info  *types.Info
}

// TypedAnalyzer is one named rule set run over a type-checked package.
type TypedAnalyzer struct {
	Name string
	Doc  string
	Run  func(*TypedPass)
}

// TypedPass is one typed analyzer's view of one package.
type TypedPass struct {
	Analyzer *TypedAnalyzer
	Pkg      *TypedPackage
	diags    *[]Diagnostic
}

// Reportf records a finding at pos.
func (p *TypedPass) Reportf(pos token.Pos, format string, args ...any) {
	position := p.Pkg.Fset.Position(pos)
	*p.diags = append(*p.diags, Diagnostic{
		Analyzer: p.Analyzer.Name,
		File:     position.Filename,
		Line:     position.Line,
		Col:      position.Column,
		Message:  fmt.Sprintf(format, args...),
	})
}

// TypeOf returns the type of e, or nil if the checker did not record
// one.
func (p *TypedPass) TypeOf(e ast.Expr) types.Type { return p.Pkg.Info.TypeOf(e) }

// ObjectOf resolves an identifier through the Defs and Uses tables.
func (p *TypedPass) ObjectOf(id *ast.Ident) types.Object {
	if o := p.Pkg.Info.Defs[id]; o != nil {
		return o
	}
	return p.Pkg.Info.Uses[id]
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

	pkg, err := LoadPackage(m.Fset, m.dirOf(path))
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

// AllTyped lists the typed-tier analyzers.
var AllTyped = []*TypedAnalyzer{Mbuflife, Locking, Hotpath}

// AnalyzerNames returns the names of every analyzer in all four tiers, in
// suite order. This is the -analyzers vocabulary and the known-set for
// //ctmsvet:allow validation: a directive naming a typed analyzer must
// stay valid even when only the syntactic tier runs.
func AnalyzerNames() []string {
	var names []string
	for _, a := range All {
		names = append(names, a.Name)
	}
	for _, a := range AllTyped {
		names = append(names, a.Name)
	}
	for _, a := range AllInter {
		names = append(names, a.Name)
	}
	names = append(names, DimAnalyzerName)
	return names
}

func knownAnalyzers() map[string]bool {
	known := make(map[string]bool)
	for _, n := range AnalyzerNames() {
		known[n] = true
	}
	return known
}

// selectTyped resolves an -analyzers style selection against the typed
// suite; an empty selection means all. Unknown names are the caller's
// problem (validated centrally by SelectNames).
func selectTyped(only []string) []*TypedAnalyzer {
	if len(only) == 0 {
		return AllTyped
	}
	var out []*TypedAnalyzer
	for _, a := range AllTyped {
		for _, n := range only {
			if a.Name == n {
				out = append(out, a)
				break
			}
		}
	}
	return out
}

// SelectNames validates an -analyzers selection against all tiers,
// returning an error that lists the valid names for any unknown entry.
func SelectNames(only []string) error {
	known := knownAnalyzers()
	for _, n := range only {
		if !known[n] {
			return fmt.Errorf("unknown analyzer %q (valid: %s)", n, strings.Join(AnalyzerNames(), ", "))
		}
	}
	return nil
}

// RunTyped executes typed analyzers over the module's packages,
// applies //ctmsvet:allow suppressions (validation is the syntactic
// tier's job, so directives are not double-reported), and returns the
// diagnostics sorted like Run's.
func RunTyped(pkgs []*TypedPackage, as []*TypedAnalyzer) []Diagnostic {
	var diags []Diagnostic
	var directives []directive
	for _, tp := range pkgs {
		for _, a := range as {
			a.Run(&TypedPass{Analyzer: a, Pkg: tp, diags: &diags})
		}
		directives = append(directives, collectDirectives(tp.Package)...)
	}
	diags = suppressDiagnostics(diags, directives)
	sortDiagnostics(diags)
	return diags
}

// RunRepoTyped loads the module at root and runs the typed tier —
// optionally restricted to the named analyzers — over every package.
func RunRepoTyped(root string, only ...string) ([]Diagnostic, error) {
	if err := SelectNames(only); err != nil {
		return nil, fmt.Errorf("ctmsvet: %w", err)
	}
	as := selectTyped(only)
	if len(as) == 0 {
		// A valid selection naming only syntactic analyzers: the typed
		// tier has nothing to do, which is not an error.
		return nil, nil
	}
	mod, err := LoadTypedModule(root)
	if err != nil {
		return nil, fmt.Errorf("ctmsvet: typed pass: %w", err)
	}
	return RunTyped(mod.Packages(), as), nil
}

// RunModuleTyped runs the typed tier over an already-loaded module, so
// callers running both type-checked tiers (the CLI, ctmsbench) pay for
// one load instead of two.
func RunModuleTyped(mod *Module, only ...string) ([]Diagnostic, error) {
	if err := SelectNames(only); err != nil {
		return nil, fmt.Errorf("ctmsvet: %w", err)
	}
	as := selectTyped(only)
	if len(as) == 0 {
		return nil, nil
	}
	return RunTyped(mod.Packages(), as), nil
}
