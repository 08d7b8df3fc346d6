package analyzers

import (
	"go/ast"
	"go/token"
	"go/types"
	"strings"
)

// Hotpath enforces allocation-freedom for functions marked with a
// //ctmsvet:hotpath doc-comment line — the whole per-frame data path:
// the scheduler's wheel buckets, free list and guards, sim.FIFO, the
// rtpc CPU (Submit, Splice, dispatch) and DMA engines, the tradapter
// tx and rx stages, the ring's transmit-request pool, router ingress
// and egress, the vca handler programs, kernel Proc programs, the ctmsp
// send path and the playout tick. The paper's whole argument is that
// the data path must run at device rate; a GC allocation per event or
// per packet is how that budget quietly erodes.
//
// Flagged inside a hotpath function:
//   - &T{...} composite-literal pointers, slice and map literals,
//   - make() and new(),
//   - append() that may grow its backing array (appending to a slice
//     expression — the delete/compact idiom — is exempt: it writes in
//     place),
//   - any fmt.* call,
//   - boxing a basic value (int, float, string, bool) into an
//     interface parameter,
//   - closures that capture local variables and are not immediately
//     invoked,
//   - a method value (x.M referenced, not called): it boxes its
//     receiver into a new func value — an allocation the call syntax
//     hides completely.
//
// Cold failure branches are exempt: an if-body whose last statement is
// panic(...) or Checkf(false, ...) is the crash path, not the data
// path, so allocations there (the panic message) are fine. Everything
// else needs a //ctmsvet:allow hotpath <reason>.
var Hotpath = &Analyzer{
	Name: "hotpath",
	Doc:  "functions marked //ctmsvet:hotpath must not allocate",
	Tier: TierTyped,
	Run:  runHotpath,
}

const hotpathDirective = "//ctmsvet:hotpath"

func runHotpath(p *Pass) {
	for _, f := range p.Pkg.Files {
		for _, decl := range f.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Body == nil || !isHotpathFunc(fd) {
				continue
			}
			checkHotpathBody(p, fd)
		}
	}
}

func isHotpathFunc(fd *ast.FuncDecl) bool {
	if fd.Doc == nil {
		return false
	}
	for _, c := range fd.Doc.List {
		if strings.TrimSpace(c.Text) == hotpathDirective {
			return true
		}
	}
	return false
}

func checkHotpathBody(p *Pass, fd *ast.FuncDecl) {
	// Cold failure branches and immediately-invoked closures need the
	// parent node, which ast.Inspect does not give us — collect both
	// up front.
	cold := make(map[*ast.BlockStmt]bool)
	invoked := make(map[*ast.FuncLit]bool)
	called := make(map[*ast.SelectorExpr]bool) // x.M in call position: a plain method call, not a method value
	ast.Inspect(fd.Body, func(n ast.Node) bool {
		switch x := n.(type) {
		case *ast.IfStmt:
			if isColdBlock(x.Body) {
				cold[x.Body] = true
			}
		case *ast.CallExpr:
			if lit, ok := ast.Unparen(x.Fun).(*ast.FuncLit); ok {
				invoked[lit] = true
			}
			if sel, ok := ast.Unparen(x.Fun).(*ast.SelectorExpr); ok {
				called[sel] = true
			}
		}
		return true
	})

	handled := make(map[ast.Node]bool) // inner literal of a flagged &T{...}
	ast.Inspect(fd.Body, func(n ast.Node) bool {
		switch x := n.(type) {
		case *ast.BlockStmt:
			if cold[x] {
				return false
			}
		case *ast.UnaryExpr:
			if lit, ok := x.X.(*ast.CompositeLit); ok && x.Op == token.AND {
				handled[lit] = true
				p.Reportf(x.Pos(), "allocates: &%s{...} in hotpath function %s", exprString(lit.Type), fd.Name.Name)
			}
		case *ast.CompositeLit:
			if handled[x] {
				return true
			}
			if t := p.TypeOf(x); t != nil {
				switch t.Underlying().(type) {
				case *types.Slice:
					p.Reportf(x.Pos(), "allocates: slice literal in hotpath function %s", fd.Name.Name)
				case *types.Map:
					p.Reportf(x.Pos(), "allocates: map literal in hotpath function %s", fd.Name.Name)
				}
			}
		case *ast.CallExpr:
			checkHotpathCall(p, fd, x)
		case *ast.FuncLit:
			if !invoked[x] && capturesLocal(p, x) {
				p.Reportf(x.Pos(), "allocates: closure captures local state in hotpath function %s", fd.Name.Name)
			}
		case *ast.SelectorExpr:
			if !called[x] {
				if sel, ok := p.Pkg.Info.Selections[x]; ok && sel.Kind() == types.MethodVal {
					p.Reportf(x.Pos(), "allocates: method value %s.%s boxes its receiver in hotpath function %s (call it, or hoist the bound value out of the hot path)",
						exprString(x.X), x.Sel.Name, fd.Name.Name)
				}
			}
		}
		return true
	})
}

func checkHotpathCall(p *Pass, fd *ast.FuncDecl, call *ast.CallExpr) {
	if checkStringByteConversion(p, fd, call) {
		return
	}
	switch fun := ast.Unparen(call.Fun).(type) {
	case *ast.Ident:
		switch fun.Name {
		case "make":
			p.Reportf(call.Pos(), "allocates: make in hotpath function %s", fd.Name.Name)
			return
		case "new":
			p.Reportf(call.Pos(), "allocates: new in hotpath function %s", fd.Name.Name)
			return
		case "append":
			// append to a slice expression (the delete/compact idiom,
			// append(s[:i], s[i+1:]...)) writes in place; anything else
			// may grow the backing array
			if len(call.Args) > 0 {
				if _, ok := ast.Unparen(call.Args[0]).(*ast.SliceExpr); ok {
					return
				}
			}
			p.Reportf(call.Pos(), "append may grow its backing array in hotpath function %s (preallocate or //ctmsvet:allow with the capacity argument)", fd.Name.Name)
			return
		}
	case *ast.SelectorExpr:
		if id, ok := fun.X.(*ast.Ident); ok {
			if pn, ok := p.ObjectOf(id).(*types.PkgName); ok && pn.Imported().Path() == "fmt" {
				p.Reportf(call.Pos(), "fmt.%s allocates in hotpath function %s", fun.Sel.Name, fd.Name.Name)
				return
			}
		}
	}
	checkBoxing(p, fd, call)
}

// checkStringByteConversion flags string([]byte) and []byte(string)
// conversions: each copies the data into a fresh allocation. Cold
// failure branches are exempt by construction — the walker never
// descends into them — matching the panic/Checkf rule for every other
// hotpath check. Reports true when call is such a conversion.
func checkStringByteConversion(p *Pass, fd *ast.FuncDecl, call *ast.CallExpr) bool {
	tv, ok := p.Pkg.Info.Types[call.Fun]
	if !ok || !tv.IsType() || len(call.Args) != 1 {
		return false
	}
	at := p.TypeOf(call.Args[0])
	if at == nil {
		return false
	}
	switch {
	case isStringType(tv.Type) && isByteSliceType(at):
		p.Reportf(call.Pos(), "allocates: string(byte slice) copies in hotpath function %s (keep it as []byte, or hoist the conversion off the hot path)", fd.Name.Name)
		return true
	case isByteSliceType(tv.Type) && isStringType(at):
		p.Reportf(call.Pos(), "allocates: []byte(string) copies in hotpath function %s (keep it as a string, or hoist the conversion off the hot path)", fd.Name.Name)
		return true
	}
	return false
}

func isStringType(t types.Type) bool {
	b, ok := t.Underlying().(*types.Basic)
	return ok && b.Info()&types.IsString != 0
}

func isByteSliceType(t types.Type) bool {
	sl, ok := t.Underlying().(*types.Slice)
	if !ok {
		return false
	}
	b, ok := sl.Elem().Underlying().(*types.Basic)
	return ok && b.Kind() == types.Uint8
}

// checkBoxing flags basic values (ints, floats, strings, bools) passed
// to interface parameters — each such argument is a heap allocation.
// Pointer and struct boxing is deliberately not flagged: those are
// design choices, not accidents.
func checkBoxing(p *Pass, fd *ast.FuncDecl, call *ast.CallExpr) {
	sig, ok := p.TypeOf(call.Fun).(*types.Signature)
	if !ok {
		return
	}
	params := sig.Params()
	for i, arg := range call.Args {
		var pt types.Type
		switch {
		case i < params.Len()-1 || (i == params.Len()-1 && !sig.Variadic()):
			pt = params.At(i).Type()
		case sig.Variadic() && params.Len() > 0:
			if sl, ok := params.At(params.Len() - 1).Type().(*types.Slice); ok {
				pt = sl.Elem()
			}
		}
		if pt == nil || !types.IsInterface(pt) {
			continue
		}
		at := p.TypeOf(arg)
		if at == nil {
			continue
		}
		if b, ok := at.Underlying().(*types.Basic); ok && b.Kind() != types.UntypedNil && b.Kind() != types.Invalid {
			p.Reportf(arg.Pos(), "boxes %s into interface (allocates) in hotpath function %s", at.String(), fd.Name.Name)
		}
	}
}

// isColdBlock recognizes the crash path: a block whose last statement
// is panic(...) or Checkf(false, ...).
func isColdBlock(b *ast.BlockStmt) bool {
	if len(b.List) == 0 {
		return false
	}
	es, ok := b.List[len(b.List)-1].(*ast.ExprStmt)
	if !ok {
		return false
	}
	call, ok := es.X.(*ast.CallExpr)
	if !ok {
		return false
	}
	switch fun := ast.Unparen(call.Fun).(type) {
	case *ast.Ident:
		if fun.Name == "panic" {
			return true
		}
		return fun.Name == "Checkf" && checkfIsFalse(call)
	case *ast.SelectorExpr:
		return fun.Sel.Name == "Checkf" && checkfIsFalse(call)
	}
	return false
}

func checkfIsFalse(call *ast.CallExpr) bool {
	if len(call.Args) == 0 {
		return false
	}
	id, ok := ast.Unparen(call.Args[0]).(*ast.Ident)
	return ok && id.Name == "false"
}

// capturesLocal reports whether lit references a function-local
// variable declared outside it. A closure over locals needs a heap
// context; one over package state (or nothing) does not allocate.
func capturesLocal(p *Pass, lit *ast.FuncLit) bool {
	captured := false
	ast.Inspect(lit.Body, func(n ast.Node) bool {
		if captured {
			return false
		}
		id, ok := n.(*ast.Ident)
		if !ok {
			return true
		}
		v, ok := p.ObjectOf(id).(*types.Var)
		if !ok || v.IsField() {
			return true
		}
		if v.Parent() == nil || v.Pkg() == nil || v.Parent() == v.Pkg().Scope() {
			return true // package-level state: no closure context needed
		}
		if v.Pos() < lit.Pos() || v.Pos() > lit.End() {
			captured = true
		}
		return true
	})
	return captured
}

func exprString(e ast.Expr) string {
	switch x := e.(type) {
	case *ast.Ident:
		return x.Name
	case *ast.SelectorExpr:
		return exprString(x.X) + "." + x.Sel.Name
	case *ast.StarExpr:
		return "*" + exprString(x.X)
	case *ast.ArrayType:
		return "[]" + exprString(x.Elt)
	default:
		return "T"
	}
}
