// Package analyzers is ctmsvet's static-analysis suite: one framework
// carrying four tiers of analyzers that enforce the reproduction's
// load-bearing invariants before any simulation runs (DESIGN.md §7).
//
//   - syntactic (determinism, exhaustive): go/ast only, no module
//     loading, so it runs in milliseconds and works on fixture packages
//     that never compile;
//   - typed (mbuflife): go/types facts over the type-checked module
//     (typed.go);
//   - interprocedural (shardowned, seedflow, barrier): module-wide
//     annotations and a call graph held on the run's World (inter.go);
//   - dimensional (dim): bits/bytes/seconds inference, solved once per
//     run over the whole module (dim.go, dimflow.go) — the paper's §1/§3
//     units hazard, 150 KB/s media on a 4 Mbit/s ring.
//
// Every analyzer is an Analyzer run through a Pass, selected by name
// from Suite and driven by one run loop. RunRepo runs the syntactic
// tier over parsed packages; RunModule runs the other three over one
// loaded Module. Which packages an analyzer reports in is the repo's
// scope rule (repo.go).
//
// A finding can be suppressed at its line (or the line below the
// comment) with
//
//	//ctmsvet:allow <analyzer> <reason>
//
// The reason is mandatory: an allow without one, or naming an unknown
// analyzer, is itself a diagnostic, reported once by RunRepo over every
// package.
package analyzers

import (
	"encoding/json"
	"fmt"
	"go/ast"
	"go/parser"
	"go/token"
	"go/types"
	"os"
	"path/filepath"
	"slices"
	"sort"
	"strings"
)

// Diagnostic is one finding, positioned for file:line:col reporting.
type Diagnostic struct {
	Analyzer string `json:"analyzer"`
	File     string `json:"file"`
	Line     int    `json:"line"`
	Col      int    `json:"col"`
	Message  string `json:"message"`
}

// String renders the diagnostic in the file:line:col form editors and CI
// logs hyperlink.
func (d Diagnostic) String() string {
	return fmt.Sprintf("%s:%d:%d: %s: %s", d.File, d.Line, d.Col, d.Analyzer, d.Message)
}

// MarshalJSONDiagnostics renders diagnostics as the -json output mode's
// array (always an array, never null, so consumers can range without a
// nil check).
func MarshalJSONDiagnostics(diags []Diagnostic) ([]byte, error) {
	if diags == nil {
		diags = []Diagnostic{}
	}
	return json.MarshalIndent(diags, "", "  ")
}

// Tier names the analyzer group an Analyzer belongs to: which facts
// its Pass carries and which entry point runs it.
type Tier string

// The four tiers, cheapest first.
const (
	TierSyntactic Tier = "syntactic" // go/ast only; Pass.Index is set
	TierTyped     Tier = "typed"     // go/types facts on Pass.Pkg
	TierInter     Tier = "inter"     // plus the module-wide World
	TierDim       Tier = "dim"       // the World's dimension solve
)

// Analyzer is one named rule set run over a package.
type Analyzer struct {
	Name string
	Doc  string
	Tier Tier
	Run  func(*Pass)
}

// Suite lists every analyzer in suite order. It is the -analyzers
// vocabulary and the known-set for //ctmsvet:allow validation: a
// directive naming a typed analyzer stays valid in a syntactic-only
// run.
var Suite = []*Analyzer{Determinism, Exhaustive, Mbuflife, Shardowned, Seedflow, Barrier, Dimensional}

// AnalyzerNames returns the suite's names in suite order.
func AnalyzerNames() []string {
	names := make([]string, len(Suite))
	for i, a := range Suite {
		names[i] = a.Name
	}
	return names
}

// Select resolves an -analyzers selection to analyzers in suite order;
// an empty selection is the whole suite. An unknown name is an error
// listing the valid ones.
func Select(only []string) ([]*Analyzer, error) {
	names := AnalyzerNames()
	for _, n := range only {
		if !slices.Contains(names, n) {
			return nil, fmt.Errorf("unknown analyzer %q (valid: %s)", n, strings.Join(names, ", "))
		}
	}
	var out []*Analyzer
	for _, a := range Suite {
		if len(only) == 0 || slices.Contains(only, a.Name) {
			out = append(out, a)
		}
	}
	return out, nil
}

// Package is one parsed directory of non-test Go files.
type Package struct {
	Dir   string
	Name  string
	Fset  *token.FileSet
	Files []*ast.File
}

// Pass is one analyzer's view of one package.
type Pass struct {
	Analyzer *Analyzer
	Pkg      *TypedPackage // Types and Info are nil in the syntactic tier
	Index    *Index        // syntactic tier: the map-typed names
	World    *World        // type-checked tiers: the run's module-wide facts
	diags    *[]Diagnostic
}

// Reportf records a finding at pos.
func (p *Pass) Reportf(pos token.Pos, format string, args ...any) {
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
func (p *Pass) TypeOf(e ast.Expr) types.Type { return p.Pkg.Info.TypeOf(e) }

// ObjectOf resolves an identifier through the Defs and Uses tables.
func (p *Pass) ObjectOf(id *ast.Ident) types.Object {
	if o := p.Pkg.Info.Defs[id]; o != nil {
		return o
	}
	return p.Pkg.Info.Uses[id]
}

// run is the one run loop behind RunRepo, RunModule and the fixture
// tests. Each analyzer runs over every package it reports in (a nil
// reports means everywhere); where an inter analyzer ran, the World's
// malformed crossing directives in that package join the findings.
// Allow directives then suppress what they cover, and the result is
// sorted.
func run(pkgs []*TypedPackage, as []*Analyzer, idx *Index, w *World, reports func(*Analyzer, string) bool) []Diagnostic {
	var diags []Diagnostic
	var directives []directive
	for _, tp := range pkgs {
		ranInter := false
		for _, a := range as {
			if reports == nil || reports(a, tp.Dir) {
				a.Run(&Pass{Analyzer: a, Pkg: tp, Index: idx, World: w, diags: &diags})
				ranInter = ranInter || a.Tier == TierInter
			}
		}
		if ranInter {
			diags = append(diags, inDir(w.malformed, tp.Dir)...)
		}
		directives = append(directives, collectDirectives(tp.Package)...)
	}
	diags = suppressDiagnostics(diags, directives)
	sortDiagnostics(diags)
	return diags
}

// inDir returns the diagnostics whose file is in the package at dir.
func inDir(diags []Diagnostic, dir string) []Diagnostic {
	var out []Diagnostic
	for _, d := range diags {
		if filepath.Dir(d.File) == dir {
			out = append(out, d)
		}
	}
	return out
}

// RunRepo runs the selected syntactic analyzers over the module rooted
// at root, without type-checking, and validates the //ctmsvet:allow
// directives of every package whatever the selection — a typo'd allow
// in a package no selected analyzer visits must not rot silently. The
// cross-package Index is built from the packages determinism reports
// in, so a restricted run sees the same index a full run does.
func RunRepo(root string, only ...string) ([]Diagnostic, error) {
	if _, err := os.Stat(filepath.Join(root, "go.mod")); err != nil {
		return nil, fmt.Errorf("ctmsvet: %s is not a module root (no go.mod)", root)
	}
	as, err := Select(only)
	if err != nil {
		return nil, fmt.Errorf("ctmsvet: %w", err)
	}
	as = slices.DeleteFunc(as, func(a *Analyzer) bool { return a.Tier != TierSyntactic })
	dirs, err := modulePackageDirs(root)
	if err != nil {
		return nil, err
	}
	reports := repoScope(root)
	fset := token.NewFileSet()
	var pkgs []*TypedPackage
	var indexed []*Package
	for _, rel := range dirs {
		dir := filepath.Join(root, filepath.FromSlash(rel))
		pkg, err := loadPackage(fset, dir)
		if err != nil {
			return nil, err
		}
		if pkg == nil {
			continue
		}
		pkgs = append(pkgs, &TypedPackage{Package: pkg})
		if reports(Determinism, dir) {
			indexed = append(indexed, pkg)
		}
	}
	if len(pkgs) == 0 {
		return nil, fmt.Errorf("ctmsvet: no Go packages found under %s", root)
	}
	return MergeDiagnostics(validateAllows(pkgs), run(pkgs, as, buildIndex(indexed), nil, reports)), nil
}

// RunModule runs the selected typed, inter and dim analyzers over an
// already-loaded module, so one go/types load serves all three tiers.
// Allow directives are not validated here: RunRepo reports each
// malformed one exactly once.
func RunModule(mod *Module, only ...string) ([]Diagnostic, error) {
	as, err := Select(only)
	if err != nil {
		return nil, fmt.Errorf("ctmsvet: %w", err)
	}
	as = slices.DeleteFunc(as, func(a *Analyzer) bool { return a.Tier == TierSyntactic })
	if len(as) == 0 {
		return nil, nil
	}
	return run(mod.Packages(), as, nil, newWorld(mod, as), repoScope(mod.Root)), nil
}

// loadPackage parses every non-test .go file directly in dir (no
// recursion; testdata and nested packages are separate loads). A dir with
// no Go files returns a nil package and no error, so optional scope
// entries cost nothing.
func loadPackage(fset *token.FileSet, dir string) (*Package, error) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		if os.IsNotExist(err) {
			return nil, nil
		}
		return nil, err
	}
	pkg := &Package{Dir: dir, Fset: fset}
	for _, e := range entries {
		name := e.Name()
		if e.IsDir() || !strings.HasSuffix(name, ".go") || strings.HasSuffix(name, "_test.go") {
			continue
		}
		path := filepath.Join(dir, name)
		f, err := parser.ParseFile(fset, path, nil, parser.ParseComments)
		if err != nil {
			return nil, fmt.Errorf("parse %s: %w", path, err)
		}
		pkg.Files = append(pkg.Files, f)
		pkg.Name = f.Name.Name
	}
	if len(pkg.Files) == 0 {
		return nil, nil
	}
	return pkg, nil
}

// Index is cross-package knowledge the determinism analyzer needs:
// which names are map-typed, for range-over-map detection. Keys are
// both bare (same-package uses) and package-qualified ("pkg.Name",
// cross-package selector uses).
type Index struct {
	mapFields map[string]bool
	mapFuncs  map[string]bool
	mapVars   map[string]bool
}

// buildIndex scans the loaded packages once, before any analyzer runs.
func buildIndex(pkgs []*Package) *Index {
	idx := &Index{
		mapFields: make(map[string]bool),
		mapFuncs:  make(map[string]bool),
		mapVars:   make(map[string]bool),
	}
	for _, pkg := range pkgs {
		for _, f := range pkg.Files {
			for _, decl := range f.Decls {
				switch d := decl.(type) {
				case *ast.FuncDecl:
					idx.indexFunc(pkg.Name, d)
				case *ast.GenDecl:
					idx.indexGen(pkg.Name, d)
				}
			}
		}
	}
	return idx
}

func (idx *Index) indexFunc(pkgName string, d *ast.FuncDecl) {
	if !singleMapResult(d.Type.Results) {
		return
	}
	idx.mapFuncs[d.Name.Name] = true
	// Methods are indexed by bare name only: a selector call x.M cannot
	// be attributed to a package syntactically, so qualified keys would
	// be wrong more often than right.
	if d.Recv == nil {
		idx.mapFuncs[pkgName+"."+d.Name.Name] = true
	}
}

func (idx *Index) indexGen(pkgName string, d *ast.GenDecl) {
	for _, spec := range d.Specs {
		switch s := spec.(type) {
		case *ast.TypeSpec:
			if st, ok := s.Type.(*ast.StructType); ok {
				for _, field := range st.Fields.List {
					if _, isMap := field.Type.(*ast.MapType); !isMap {
						continue
					}
					for _, n := range field.Names {
						idx.mapFields[n.Name] = true
					}
				}
			}
		case *ast.ValueSpec:
			if d.Tok != token.VAR {
				continue
			}
			if _, isMap := s.Type.(*ast.MapType); isMap {
				for _, n := range s.Names {
					idx.mapVars[n.Name] = true
					idx.mapVars[pkgName+"."+n.Name] = true
				}
			}
		}
	}
}

func singleMapResult(fl *ast.FieldList) bool {
	if fl == nil || len(fl.List) != 1 || len(fl.List[0].Names) > 1 {
		return false
	}
	_, isMap := fl.List[0].Type.(*ast.MapType)
	return isMap
}

// MergeDiagnostics combines RunRepo's and RunModule's findings into one
// report in sortDiagnostics order.
func MergeDiagnostics(a, b []Diagnostic) []Diagnostic {
	out := make([]Diagnostic, 0, len(a)+len(b))
	out = append(out, a...)
	out = append(out, b...)
	sortDiagnostics(out)
	return out
}

// sortDiagnostics orders findings by file, line, column, analyzer and
// message — a total order, so a report never depends on which tier
// found what first.
func sortDiagnostics(diags []Diagnostic) {
	sort.Slice(diags, func(i, j int) bool {
		a, b := diags[i], diags[j]
		if a.File != b.File {
			return a.File < b.File
		}
		if a.Line != b.Line {
			return a.Line < b.Line
		}
		if a.Col != b.Col {
			return a.Col < b.Col
		}
		if a.Analyzer != b.Analyzer {
			return a.Analyzer < b.Analyzer
		}
		return a.Message < b.Message
	})
}

// directivePrefix introduces a suppression comment:
//
//	//ctmsvet:allow <analyzer> <reason>
const directivePrefix = "//ctmsvet:allow"

type directive struct {
	file     string
	line     int
	analyzer string
	reason   string
}

// parseAllowDirective parses one comment's text. ok reports whether the
// comment is an allow directive at all; malformed-but-recognized
// directives return ok with empty analyzer or reason, which
// validateAllows turns into findings. This function is the
// FuzzAllowDirective target: it must be total — any comment text, no
// matter how mangled, parses without panicking.
func parseAllowDirective(text string) (analyzer, reason string, ok bool) {
	rest, ok := strings.CutPrefix(text, directivePrefix)
	if !ok {
		return "", "", false
	}
	analyzer, reason, _ = strings.Cut(strings.TrimSpace(rest), " ")
	return analyzer, strings.TrimSpace(reason), true
}

func collectDirectives(pkg *Package) []directive {
	var out []directive
	for _, f := range pkg.Files {
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				analyzer, reason, ok := parseAllowDirective(c.Text)
				if !ok {
					continue
				}
				pos := pkg.Fset.Position(c.Pos())
				out = append(out, directive{
					file:     pos.Filename,
					line:     pos.Line,
					analyzer: analyzer,
					reason:   reason,
				})
			}
		}
	}
	return out
}

// validateAllows reports the malformed allow directives in pkgs: no
// analyzer, one outside the suite, or a missing reason.
func validateAllows(pkgs []*TypedPackage) []Diagnostic {
	names := AnalyzerNames()
	var out []Diagnostic
	for _, tp := range pkgs {
		for _, d := range collectDirectives(tp.Package) {
			var msg string
			switch {
			case d.analyzer == "":
				msg = "allow directive names no analyzer (want //ctmsvet:allow <analyzer> <reason>)"
			case !slices.Contains(names, d.analyzer):
				msg = fmt.Sprintf("allow directive names unknown analyzer %q", d.analyzer)
			case d.reason == "":
				msg = fmt.Sprintf("allow directive for %q is missing its mandatory reason", d.analyzer)
			default:
				continue
			}
			out = append(out, Diagnostic{Analyzer: "ctmsvet", File: d.file, Line: d.line, Col: 1, Message: msg})
		}
	}
	return out
}

// suppressDiagnostics drops findings covered by a well-formed allow
// directive. A directive suppresses its analyzer's findings on its own
// line (trailing comment) and on the line directly below (comment-above
// form) — the two places gofmt will keep it.
func suppressDiagnostics(diags []Diagnostic, directives []directive) []Diagnostic {
	var out []Diagnostic
	for _, diag := range diags {
		if !suppressed(diag, directives) {
			out = append(out, diag)
		}
	}
	return out
}

func suppressed(diag Diagnostic, directives []directive) bool {
	for _, d := range directives {
		if d.analyzer != diag.Analyzer || d.reason == "" || d.file != diag.File {
			continue
		}
		if diag.Line == d.line || diag.Line == d.line+1 {
			return true
		}
	}
	return false
}

// importPathOf resolves a file-local package identifier (the name before
// a selector dot) to its import path, or "" if the name is not an
// import.
func importPathOf(f *ast.File, name string) string {
	for _, imp := range f.Imports {
		path := strings.Trim(imp.Path.Value, `"`)
		local := ""
		if imp.Name != nil {
			local = imp.Name.Name
		} else {
			if i := strings.LastIndex(path, "/"); i >= 0 {
				local = path[i+1:]
			} else {
				local = path
			}
		}
		if local == name {
			return path
		}
	}
	return ""
}
