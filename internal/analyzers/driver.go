// Package analyzers is ctmsvet's static-analysis suite. This file is
// its syntactic tier: a small, stdlib-only (go/ast, go/parser,
// go/token) lint engine plus two analyzers that enforce the
// reproduction's load-bearing invariants before any simulation runs.
//
//   - determinism: sim-critical packages must not read the wall clock,
//     draw from the global math/rand generator, or build
//     iteration-order-dependent output while ranging over a map. These
//     are exactly the ways a "bit-identical at any -parallel" guarantee
//     rots silently.
//   - exhaustive: every switch over a root-package enum registered in
//     enumTable (enummap.go) must cover all values or carry a default,
//     so adding an enum value cannot silently fall through.
//
// The paper's §1/§3 units hazard — 150 KB/s media on a 4 Mbit/s ring —
// belongs to the type-checked dim tier (dim.go, dimflow.go), which
// infers every value's dimension instead of matching names one
// expression at a time.
//
// A finding can be suppressed at its line (or the line below the
// comment) with
//
//	//ctmsvet:allow <analyzer> <reason>
//
// The reason is mandatory: an allow without one, or naming an unknown
// analyzer, is itself a diagnostic. The engine is deliberately
// syntactic — no go/types, no module loading — so it runs in
// milliseconds, works on fixture packages that never compile, and has
// no dependencies beyond the standard library.
package analyzers

import (
	"encoding/json"
	"fmt"
	"go/ast"
	"go/parser"
	"go/token"
	"os"
	"path/filepath"
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

// Analyzer is one named rule set run over a package.
type Analyzer struct {
	Name string
	Doc  string
	Run  func(*Pass)
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
	Pkg      *Package
	Index    *Index
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

// LoadPackage parses every non-test .go file directly in dir (no
// recursion; testdata and nested packages are separate loads). A dir with
// no Go files returns a nil package and no error, so optional scope
// entries cost nothing.
func LoadPackage(fset *token.FileSet, dir string) (*Package, error) {
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

// BuildIndex scans the loaded packages once, before any analyzer runs.
func BuildIndex(pkgs []*Package) *Index {
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

// Target pairs a package with the analyzers that apply to it; scope
// policy (which analyzer runs where) lives with the caller.
type Target struct {
	p         *Package
	analyzers []*Analyzer
}

// NewTarget builds a Target.
func NewTarget(pkg *Package, as ...*Analyzer) Target {
	return Target{p: pkg, analyzers: as}
}

// Run executes every target's analyzers, applies //ctmsvet:allow
// suppressions, validates the directives themselves, and returns the
// surviving diagnostics sorted by file, line, column, analyzer. The
// known-analyzer vocabulary for directive validation spans all tiers
// (see AnalyzerNames), so an allow for a typed analyzer stays valid in
// a syntactic-only run.
func Run(targets []Target, idx *Index) []Diagnostic {
	var diags []Diagnostic
	var directives []directive
	for _, t := range targets {
		if t.p == nil {
			continue
		}
		for _, a := range t.analyzers {
			a.Run(&Pass{Analyzer: a, Pkg: t.p, Index: idx, diags: &diags})
		}
		directives = append(directives, collectDirectives(t.p)...)
	}
	diags = append(validateDirectives(directives, knownAnalyzers()), suppressDiagnostics(diags, directives)...)
	sortDiagnostics(diags)
	return diags
}

// sortDiagnostics orders findings by file, line, column, analyzer — the
// stable order every tier and the merged CLI report use.
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
		return a.Analyzer < b.Analyzer
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
// validateDirectives turns into findings. This function is the
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

// validateDirectives reports malformed directives: no analyzer, an
// unknown analyzer, or a missing reason. It runs once per lint (in the
// syntactic tier), never in the typed tier, so a malformed directive is
// reported exactly once however many tiers scan its package.
func validateDirectives(directives []directive, known map[string]bool) []Diagnostic {
	var out []Diagnostic
	for _, d := range directives {
		switch {
		case d.analyzer == "":
			out = append(out, Diagnostic{
				Analyzer: "ctmsvet", File: d.file, Line: d.line, Col: 1,
				Message: "allow directive names no analyzer (want //ctmsvet:allow <analyzer> <reason>)",
			})
		case !known[d.analyzer]:
			out = append(out, Diagnostic{
				Analyzer: "ctmsvet", File: d.file, Line: d.line, Col: 1,
				Message: fmt.Sprintf("allow directive names unknown analyzer %q", d.analyzer),
			})
		case d.reason == "":
			out = append(out, Diagnostic{
				Analyzer: "ctmsvet", File: d.file, Line: d.line, Col: 1,
				Message: fmt.Sprintf("allow directive for %q is missing its mandatory reason", d.analyzer),
			})
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
