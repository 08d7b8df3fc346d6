package analyzers

import (
	"go/token"
	"os"
	"path/filepath"
	"regexp"
	"sync"
	"testing"
)

// A wantComment is one golden diagnostic parsed from a fixture file:
//
//	code // want `regex`
//
// A want on a line of its own attaches to the nearest code line above it
// (needed where the flagged line's trailing comment is itself the
// directive under test).
type wantComment struct {
	file    string
	line    int
	re      *regexp.Regexp
	matched bool
}

var wantRx = regexp.MustCompile("// want `([^`]+)`")

// wantOnlyRx matches lines that hold nothing but want comments.
var wantOnlyRx = regexp.MustCompile("^\\s*// want `")

func parseWants(t *testing.T, pkg *Package) []wantComment {
	t.Helper()
	var wants []wantComment
	for _, f := range pkg.Files {
		filename := pkg.Fset.Position(f.Pos()).Filename
		data, err := os.ReadFile(filename)
		if err != nil {
			t.Fatalf("read fixture: %v", err)
		}
		lastCode := 0
		line := 0
		for _, text := range regexp.MustCompile("\r?\n").Split(string(data), -1) {
			line++
			standalone := wantOnlyRx.MatchString(text)
			if !standalone {
				lastCode = line
			}
			for _, m := range wantRx.FindAllStringSubmatch(text, -1) {
				at := line
				if standalone {
					at = lastCode
				}
				re, err := regexp.Compile(m[1])
				if err != nil {
					t.Fatalf("%s:%d: bad want regexp %q: %v", filename, line, m[1], err)
				}
				wants = append(wants, wantComment{file: filename, line: at, re: re})
			}
		}
	}
	return wants
}

// runFixture loads the syntactic fixture package in dir, runs the
// given analyzers over it with allow validation, as RunRepo does, and
// checks the diagnostics against its // want comments.
func runFixture(t *testing.T, dir string, as ...*Analyzer) {
	t.Helper()
	fset := token.NewFileSet()
	pkg, err := loadPackage(fset, dir)
	if err != nil {
		t.Fatalf("load %s: %v", dir, err)
	}
	if pkg == nil {
		t.Fatalf("no fixture package in %s", dir)
	}
	pkgs := []*TypedPackage{{Package: pkg}}
	diags := MergeDiagnostics(validateAllows(pkgs), run(pkgs, as, buildIndex([]*Package{pkg}), nil, nil))
	matchWants(t, diags, parseWants(t, pkg))
}

// moduleLoads caches one type-checked load per module root, shared by
// every test that reads it: the source importer pulling the standard
// library from GOROOT dominates a load's cost.
var moduleLoads sync.Map // root -> *moduleLoad

type moduleLoad struct {
	once sync.Once
	mod  *Module
	err  error
}

func loadModule(t *testing.T, root string) *Module {
	t.Helper()
	v, _ := moduleLoads.LoadOrStore(root, new(moduleLoad))
	l := v.(*moduleLoad)
	l.once.Do(func() { l.mod, l.err = LoadTypedModule(root) })
	if l.err != nil {
		t.Fatalf("load module %s: %v", root, l.err)
	}
	return l.mod
}

// runModuleFixture runs the given analyzers over one package of the
// compiling fixture module in testdata/<module> (import path
// <module>fix/<pkgPath>) and checks its // want comments. The World is
// module-wide, as in a repo run; only the package under test reports.
func runModuleFixture(t *testing.T, module, pkgPath string, as ...*Analyzer) {
	t.Helper()
	mod := loadModule(t, filepath.Join("testdata", module))
	tp := mod.pkgs[module+"fix/"+pkgPath]
	if tp == nil {
		t.Fatalf("fixture package %sfix/%s not loaded", module, pkgPath)
	}
	diags := run([]*TypedPackage{tp}, as, nil, newWorld(mod, as), nil)
	matchWants(t, diags, parseWants(t, tp.Package))
}

// matchWants checks diagnostics against want comments in both
// directions: every diagnostic must be wanted, every want must fire.
func matchWants(t *testing.T, diags []Diagnostic, wants []wantComment) {
	t.Helper()
	for _, d := range diags {
		found := false
		for i := range wants {
			w := &wants[i]
			if w.matched || w.file != d.File || w.line != d.Line {
				continue
			}
			if w.re.MatchString(d.Message) {
				w.matched = true
				found = true
				break
			}
		}
		if !found {
			t.Errorf("unexpected diagnostic: %s", d)
		}
	}
	for _, w := range wants {
		if !w.matched {
			t.Errorf("%s:%d: want %q, got no matching diagnostic", w.file, w.line, w.re)
		}
	}
}

func TestDeterminismFixture(t *testing.T) {
	runFixture(t, filepath.Join("testdata", "determinism"), Determinism)
}

func TestExhaustiveFixture(t *testing.T) {
	runFixture(t, filepath.Join("testdata", "exhaustive"), Exhaustive)
}

func TestAllowFixture(t *testing.T) {
	runFixture(t, filepath.Join("testdata", "allow"), Determinism, Exhaustive)
}
