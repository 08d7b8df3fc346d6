package analyzers

// This file is the solver half of the dimensional-inference tier (the
// algebra and the //ctmsvet:unit directive live in dim.go) and its one
// analyzer, dim. The solve runs once per RunModule run over the whole
// loaded module, cached on the World, and each package's dim pass
// reports the findings in its own files. It works in three phases:
//
//  1. scan: collect //ctmsvet:unit directives (fields, const/var
//     specs, type declarations, function params and results),
//     validating shape and placement; malformed or unattached
//     directives become findings immediately.
//  2. collect: extract every dimension-relevant flow in the module —
//     assignments, call arguments, returns, composite-literal fields —
//     plus check-only expressions (if/for conditions, switch tags,
//     discarded values).
//  3. solve: propagate dimensions along the flows to a fixed point.
//     Every value's dimension carries its derivation — the seed that
//     introduced it and each assignment/argument/return hop it took,
//     with file:line per hop — so a conflict is reported at the first
//     contradicting expression with the full chain, and the finding
//     explains itself.
//
// Propagation rules (DESIGN.md §7.4): add, subtract and compare force
// dimension equality; multiply and divide compose exponents;
// constant-valued operands in multiplicative position are scale
// factors (the algebra is scale-blind) except the literal 8, the
// blessed bit<->byte converter; an operand with no known dimension is
// treated as a dimensionless count under * and /, and unconstrained
// under + and -. Conversions (T(x)) preserve the operand's dimension:
// Go code routinely casts counts into quantity types to satisfy the
// type checker, and the cast must not launder the dimension.

import (
	"fmt"
	"go/ast"
	"go/constant"
	"go/token"
	"go/types"
	"path/filepath"
	"strings"
)

// Dimensional reports bits/bytes/seconds confusions and malformed
// //ctmsvet:unit directives.
var Dimensional = &Analyzer{
	Name: dimName,
	Doc:  "infer every value's dimension over the module and flag flows and expressions where two dimensions meet",
	Tier: TierDim,
	Run:  runDim,
}

// dimName is spelled out once for the solver's findings: they are built
// before any Pass exists.
const dimName = "dim"

func runDim(p *Pass) {
	*p.diags = append(*p.diags, inDir(p.World.dimFindings(), p.Pkg.Dir)...)
}

// dimFindings solves the module's dimensions on first use and returns
// every conflict and malformed unit directive, module-wide: constraints
// always span the module (a seed in internal/sim constrains a flow in
// internal/topo), whichever packages a run reports in.
func (w *World) dimFindings() []Diagnostic {
	if w.dim == nil {
		dw := newDimWorld(w.Mod)
		dw.scanDirectives()
		dw.collectFlows()
		dw.solve()
		w.dim = append(append([]Diagnostic{}, dw.conflicts...), dw.malformed...)
	}
	return w.dim
}

// dimStep is one hop of a derivation chain.
type dimStep struct {
	pos  token.Pos
	note string
}

// dimVal is a dimension together with the chain that derived it.
type dimVal struct {
	d     Dim
	known bool
	steps []dimStep
}

// How firmly a node's dimension is held. Hard seeds (an explicit
// directive, or the object's own name) are ground truth: a conflicting
// flow into a hard node is a finding. Soft seeds (the declared type —
// sim.Time values are usually seconds, but a per-byte cost stored in a
// Time is not) and flow-inferred dimensions are best-effort: a
// conflicting flow demotes the node to polymorphic instead of firing,
// which is what makes generic helpers (PutUint32, Scale, a reused
// temp) inert rather than module-poisoning.
const (
	seedNone = iota // inferred from flows, or still unknown
	seedSoft        // from the declared type
	seedHard        // from a //ctmsvet:unit directive or the name
)

// dimNode is the inferred dimension of one declared object (var,
// field, param, result, const).
type dimNode struct {
	dimVal
	seed       int
	poly       bool // demoted: carries no dimension, checks nothing
	conflicted bool // one conflict per object: suppress cascades
}

// dimFlow is one propagation edge: expr (or srcObj) flows into target.
// A nil target is a check-only flow — the expression is evaluated for
// internal add/sub/compare consistency and its value goes nowhere.
type dimFlow struct {
	tp     *TypedPackage
	target types.Object
	src    types.Object // object-to-object flow (multi-value assign)
	expr   ast.Expr     // nil iff src is set
	pos    token.Pos
	note   string // hop description, e.g. "assigned to n"
}

// dimWorld is the module-wide inference state.
type dimWorld struct {
	mod *Module

	objDirective  map[types.Object]Dim
	typeDirective map[*types.TypeName]Dim
	resultSeed    map[types.Object]Dim // func-name seeds for result vars
	consumed      map[*ast.Comment]bool
	malformed     []Diagnostic

	nodes map[types.Object]*dimNode
	flows []dimFlow

	conflicts    []Diagnostic
	conflictSeen map[string]bool
	changed      bool
}

func newDimWorld(mod *Module) *dimWorld {
	return &dimWorld{
		mod:           mod,
		objDirective:  make(map[types.Object]Dim),
		typeDirective: make(map[*types.TypeName]Dim),
		resultSeed:    make(map[types.Object]Dim),
		consumed:      make(map[*ast.Comment]bool),
		nodes:         make(map[types.Object]*dimNode),
		conflictSeen:  make(map[string]bool),
	}
}

// relPos renders a position root-relative for derivation chains, so
// messages are stable across checkouts (and baseline-matchable).
func (w *dimWorld) relPos(pos token.Pos) string {
	p := w.mod.Fset.Position(pos)
	file := p.Filename
	if rel, err := filepath.Rel(w.mod.Root, file); err == nil && !strings.HasPrefix(rel, "..") {
		file = filepath.ToSlash(rel)
	}
	return fmt.Sprintf("%s:%d", file, p.Line)
}

// renderChain formats a derivation for a finding: each hop's note and
// file:line, seed first. Long chains elide their middle.
func (w *dimWorld) renderChain(steps []dimStep) string {
	const keepHead, keepTail = 3, 4
	var parts []string
	render := func(s dimStep) string {
		return fmt.Sprintf("%s [%s]", s.note, w.relPos(s.pos))
	}
	if n := len(steps); n > keepHead+keepTail+1 {
		for _, s := range steps[:keepHead] {
			parts = append(parts, render(s))
		}
		parts = append(parts, fmt.Sprintf("(%d hops elided)", n-keepHead-keepTail))
		for _, s := range steps[n-keepTail:] {
			parts = append(parts, render(s))
		}
	} else {
		for _, s := range steps {
			parts = append(parts, render(s))
		}
	}
	return strings.Join(parts, " -> ")
}

// ---- phase 1: directives and seeds ----------------------------------

// scanDirectives walks every file of every package collecting
// //ctmsvet:unit annotations and validating their shape and placement.
func (w *dimWorld) scanDirectives() {
	for _, tp := range w.mod.Packages() {
		for _, f := range tp.Files {
			w.scanFileDirectives(tp, f)
		}
	}
	// Any unit directive not consumed by a declaration it can annotate
	// rots silently; sweep and report.
	for _, tp := range w.mod.Packages() {
		for _, f := range tp.Files {
			for _, cg := range f.Comments {
				for _, c := range cg.List {
					if _, _, _, ok := parseUnitDirective(c.Text); !ok || w.consumed[c] {
						continue
					}
					w.reportDirective(tp, c, "unit directive is not attached to a field, const/var, type or function declaration")
				}
			}
		}
	}
}

func (w *dimWorld) reportDirective(tp *TypedPackage, c *ast.Comment, format string, args ...any) {
	w.consumed[c] = true
	pos := tp.Fset.Position(c.Pos())
	w.malformed = append(w.malformed, Diagnostic{
		Analyzer: "ctmsvet", File: pos.Filename, Line: pos.Line, Col: 1,
		Message: fmt.Sprintf(format, args...),
	})
}

// unitComments extracts the unit directives from a set of comment
// groups, leaving them marked consumed.
func (w *dimWorld) unitComments(cgs ...*ast.CommentGroup) []*ast.Comment {
	var out []*ast.Comment
	for _, cg := range cgs {
		if cg == nil {
			continue
		}
		for _, c := range cg.List {
			if _, _, _, ok := parseUnitDirective(c.Text); ok {
				out = append(out, c)
			}
		}
	}
	return out
}

// parseDirective validates one attached directive and returns its
// dimension and target token; reported problems return ok=false.
func (w *dimWorld) parseDirective(tp *TypedPackage, c *ast.Comment) (Dim, string, bool) {
	w.consumed[c] = true
	dimExpr, target, extra, _ := parseUnitDirective(c.Text)
	if dimExpr == "" {
		w.reportDirective(tp, c, "unit directive names no dimension (want //ctmsvet:unit <dimension>)")
		return Dim{}, "", false
	}
	if extra {
		w.reportDirective(tp, c, "unit directive has trailing words after %q (want //ctmsvet:unit <dimension> [param])", target)
		return Dim{}, "", false
	}
	d, err := ParseDim(dimExpr)
	if err != nil {
		w.reportDirective(tp, c, "unit directive: %v", err)
		return Dim{}, "", false
	}
	return d, target, true
}

func (w *dimWorld) scanFileDirectives(tp *TypedPackage, f *ast.File) {
	for _, decl := range f.Decls {
		switch d := decl.(type) {
		case *ast.FuncDecl:
			w.scanFuncDirectives(tp, d)
			if d.Body != nil {
				w.seedResultFromName(tp, d)
			}
		case *ast.GenDecl:
			w.scanGenDirectives(tp, d)
		}
	}
	// Struct fields can appear anywhere (including inside function
	// bodies); sweep them all.
	ast.Inspect(f, func(n ast.Node) bool {
		st, ok := n.(*ast.StructType)
		if !ok {
			return true
		}
		for _, field := range st.Fields.List {
			for _, c := range w.unitComments(field.Doc, field.Comment) {
				d, target, ok := w.parseDirective(tp, c)
				if !ok {
					continue
				}
				if target != "" {
					w.reportDirective(tp, c, "unit directive on a field takes no target token (got %q)", target)
					continue
				}
				for _, name := range field.Names {
					if obj := tp.Info.Defs[name]; obj != nil {
						w.objDirective[obj] = d
					}
				}
			}
		}
		return true
	})
}

func (w *dimWorld) scanFuncDirectives(tp *TypedPackage, fd *ast.FuncDecl) {
	cs := w.unitComments(fd.Doc)
	if len(cs) == 0 {
		return
	}
	obj, _ := tp.Info.Defs[fd.Name].(*types.Func)
	if obj == nil {
		return
	}
	sig := obj.Type().(*types.Signature)
	for _, c := range cs {
		d, target, ok := w.parseDirective(tp, c)
		if !ok {
			continue
		}
		switch {
		case target == "result" || (target == "" && sig.Results().Len() == 1):
			if sig.Results().Len() != 1 {
				w.reportDirective(tp, c, "unit directive targets the result of %s, which has %d results", fd.Name.Name, sig.Results().Len())
				continue
			}
			w.objDirective[sig.Results().At(0)] = d
		case target == "":
			w.reportDirective(tp, c, "unit directive on %s names no parameter (want //ctmsvet:unit <dimension> <param>)", fd.Name.Name)
		default:
			var param *types.Var
			for i := 0; i < sig.Params().Len(); i++ {
				if sig.Params().At(i).Name() == target {
					param = sig.Params().At(i)
					break
				}
			}
			if param == nil && sig.Recv() != nil && sig.Recv().Name() == target {
				param = sig.Recv()
			}
			if param == nil {
				w.reportDirective(tp, c, "unit directive names %q, not a parameter of %s", target, fd.Name.Name)
				continue
			}
			w.objDirective[param] = d
		}
	}
}

func (w *dimWorld) scanGenDirectives(tp *TypedPackage, gd *ast.GenDecl) {
	declDoc := gd.Doc
	if len(gd.Specs) != 1 {
		declDoc = nil // a shared doc cannot be attributed to one spec
	}
	for _, spec := range gd.Specs {
		switch s := spec.(type) {
		case *ast.TypeSpec:
			for _, c := range w.unitComments(declDoc, s.Doc, s.Comment) {
				d, target, ok := w.parseDirective(tp, c)
				if !ok {
					continue
				}
				if target != "" {
					w.reportDirective(tp, c, "unit directive on a type takes no target token (got %q)", target)
					continue
				}
				if tn, ok := tp.Info.Defs[s.Name].(*types.TypeName); ok {
					w.typeDirective[tn] = d
				}
			}
		case *ast.ValueSpec:
			for _, c := range w.unitComments(declDoc, s.Doc, s.Comment) {
				d, target, ok := w.parseDirective(tp, c)
				if !ok {
					continue
				}
				if target != "" {
					w.reportDirective(tp, c, "unit directive on a const/var takes no target token (got %q)", target)
					continue
				}
				for _, name := range s.Names {
					if obj := tp.Info.Defs[name]; obj != nil {
						w.objDirective[obj] = d
					}
				}
			}
		}
	}
}

// seedResultFromName records a function-name seed for a single unnamed
// (or unit-namelessly named) result: OfferedBits() must return bits,
// Seconds() must return seconds.
func (w *dimWorld) seedResultFromName(tp *TypedPackage, fd *ast.FuncDecl) {
	obj, _ := tp.Info.Defs[fd.Name].(*types.Func)
	if obj == nil {
		return
	}
	sig := obj.Type().(*types.Signature)
	if sig.Results().Len() != 1 {
		return
	}
	res := sig.Results().At(0)
	if res.Name() != "" {
		return // a named result seeds from its own name
	}
	if d, ok := dimFromName(fd.Name.Name); ok && numericish(res.Type()) {
		w.resultSeed[res] = d
	}
}

// numericish reports whether t (through pointers, slices and arrays)
// bottoms out in a numeric basic type — the only shapes a dimension
// can usefully attach to.
func numericish(t types.Type) bool {
	for i := 0; i < 10 && t != nil; i++ {
		switch x := t.(type) {
		case *types.Alias:
			t = types.Unalias(x)
		case *types.Named:
			t = x.Underlying()
		case *types.Pointer:
			t = x.Elem()
		case *types.Slice:
			t = x.Elem()
		case *types.Array:
			t = x.Elem()
		case *types.Basic:
			return x.Info()&types.IsNumeric != 0
		default:
			return false
		}
	}
	return false
}

// typeDim resolves the type-based seed of t: time.Duration and any
// named type whose declaration carries //ctmsvet:unit. Pointers,
// slices and arrays are transparent (a []sim.Time is still seconds,
// element-wise).
func (w *dimWorld) typeDim(t types.Type) (Dim, string, bool) {
	for i := 0; i < 10 && t != nil; i++ {
		switch x := t.(type) {
		case *types.Alias:
			t = types.Unalias(x)
		case *types.Pointer:
			t = x.Elem()
		case *types.Slice:
			t = x.Elem()
		case *types.Array:
			t = x.Elem()
		case *types.Named:
			tn := x.Obj()
			if tn.Pkg() != nil && tn.Pkg().Path() == "time" && tn.Name() == "Duration" {
				return Dim{exp: [numDims]int8{dimSec: 1}}, "time.Duration", true
			}
			if d, ok := w.typeDirective[tn]; ok {
				return d, "//ctmsvet:unit on type " + tn.Name(), true
			}
			t = x.Underlying()
		default:
			return Dim{}, "", false
		}
	}
	return Dim{}, "", false
}

// nodeFor returns (creating and seeding on first use) the inference
// node of obj. Seed precedence: explicit //ctmsvet:unit directive,
// then the object's own name, then a function-name result seed, then
// the declared type.
func (w *dimWorld) nodeFor(obj types.Object) *dimNode {
	if n, ok := w.nodes[obj]; ok {
		return n
	}
	n := &dimNode{}
	w.nodes[obj] = n
	name := obj.Name()
	if d, ok := w.objDirective[obj]; ok {
		n.seed = seedHard
		n.dimVal = dimVal{d: d, known: true, steps: []dimStep{{obj.Pos(), fmt.Sprintf("%s seeded %s (//ctmsvet:unit directive)", seedLabel(obj), d)}}}
		return n
	}
	if name != "" && name != "_" && numericish(obj.Type()) {
		if d, ok := dimFromName(name); ok {
			n.seed = seedHard
			n.dimVal = dimVal{d: d, known: true, steps: []dimStep{{obj.Pos(), fmt.Sprintf("%s seeded %s (name)", name, d)}}}
			return n
		}
	}
	if d, ok := w.resultSeed[obj]; ok {
		n.seed = seedHard
		n.dimVal = dimVal{d: d, known: true, steps: []dimStep{{obj.Pos(), fmt.Sprintf("result seeded %s (function name)", d)}}}
		return n
	}
	if d, src, ok := w.typeDim(obj.Type()); ok {
		n.seed = seedSoft
		n.dimVal = dimVal{d: d, known: true, steps: []dimStep{{obj.Pos(), fmt.Sprintf("%s seeded %s (%s)", seedLabel(obj), d, src)}}}
		return n
	}
	return n
}

func seedLabel(obj types.Object) string {
	if obj.Name() == "" {
		return "result"
	}
	return obj.Name()
}

// ---- phase 2: flow collection ---------------------------------------

func (w *dimWorld) collectFlows() {
	for _, tp := range w.mod.Packages() {
		for _, f := range tp.Files {
			for _, decl := range f.Decls {
				switch d := decl.(type) {
				case *ast.GenDecl:
					for _, spec := range d.Specs {
						if vs, ok := spec.(*ast.ValueSpec); ok {
							w.flowValueSpec(tp, vs)
						}
					}
				case *ast.FuncDecl:
					if d.Body != nil {
						w.collectFuncFlows(tp, d)
					}
				}
			}
		}
	}
}

func (w *dimWorld) addFlow(fl dimFlow) {
	// A dimension can only attach to a numeric slot. Flows into
	// interface, string or struct targets (fmt-style ...any variadics
	// above all) degrade to check-only: without this, every Checkf
	// argument in the module would unify through the one shared args
	// parameter.
	if fl.target != nil && !numericish(fl.target.Type()) {
		fl.target = nil
	}
	w.flows = append(w.flows, fl)
}

func (w *dimWorld) flowValueSpec(tp *TypedPackage, vs *ast.ValueSpec) {
	if len(vs.Values) != len(vs.Names) {
		return
	}
	for i, name := range vs.Names {
		obj := tp.Info.Defs[name]
		w.addFlow(dimFlow{tp: tp, target: obj, expr: vs.Values[i], pos: vs.Values[i].Pos(),
			note: "assigned to " + name.Name})
	}
}

// funcFrame tracks the innermost function while walking a body, so
// return statements answer to the right signature.
type funcFrame struct {
	sig *types.Signature
	end token.Pos
}

func (w *dimWorld) collectFuncFlows(tp *TypedPackage, fd *ast.FuncDecl) {
	var frames []funcFrame
	if obj, ok := tp.Info.Defs[fd.Name].(*types.Func); ok {
		frames = append(frames, funcFrame{obj.Type().(*types.Signature), fd.End()})
	}
	ast.Inspect(fd.Body, func(n ast.Node) bool {
		if n == nil {
			return true
		}
		for len(frames) > 1 && n.Pos() >= frames[len(frames)-1].end {
			frames = frames[:len(frames)-1]
		}
		switch x := n.(type) {
		case *ast.FuncLit:
			if sig, ok := tp.Info.TypeOf(x).(*types.Signature); ok {
				frames = append(frames, funcFrame{sig, x.End()})
			}
		case *ast.AssignStmt:
			w.flowAssign(tp, x)
		case *ast.DeclStmt:
			if gd, ok := x.Decl.(*ast.GenDecl); ok {
				for _, spec := range gd.Specs {
					if vs, ok := spec.(*ast.ValueSpec); ok {
						w.flowValueSpec(tp, vs)
					}
				}
			}
		case *ast.ReturnStmt:
			if len(frames) > 0 {
				w.flowReturn(tp, x, frames[len(frames)-1].sig)
			}
		case *ast.CallExpr:
			w.flowCall(tp, x)
		case *ast.CompositeLit:
			w.flowCompositeLit(tp, x)
		case *ast.IfStmt:
			w.addFlow(dimFlow{tp: tp, expr: x.Cond, pos: x.Cond.Pos()})
		case *ast.ForStmt:
			if x.Cond != nil {
				w.addFlow(dimFlow{tp: tp, expr: x.Cond, pos: x.Cond.Pos()})
			}
		case *ast.SwitchStmt:
			if x.Tag != nil {
				w.addFlow(dimFlow{tp: tp, expr: x.Tag, pos: x.Tag.Pos()})
			}
		}
		return true
	})
}

// slotObject resolves an assignment target to its declared object,
// looking through index, star and paren wrappers (a store into m[k] or
// *p constrains m's or p's element dimension).
func slotObject(tp *TypedPackage, e ast.Expr) types.Object {
	switch x := ast.Unparen(e).(type) {
	case *ast.Ident:
		if x.Name == "_" {
			return nil
		}
		if o := tp.Info.Defs[x]; o != nil {
			return o
		}
		return tp.Info.Uses[x]
	case *ast.SelectorExpr:
		return tp.Info.Uses[x.Sel]
	case *ast.IndexExpr:
		return slotObject(tp, x.X)
	case *ast.StarExpr:
		return slotObject(tp, x.X)
	}
	return nil
}

func (w *dimWorld) flowAssign(tp *TypedPackage, as *ast.AssignStmt) {
	if len(as.Lhs) == len(as.Rhs) {
		for i, lhs := range as.Lhs {
			var target types.Object
			switch as.Tok {
			case token.ASSIGN, token.DEFINE, token.ADD_ASSIGN, token.SUB_ASSIGN:
				target = slotObject(tp, lhs)
			default:
				// *=, /= and friends change the dimension of the slot
				// itself; the store is out of the algebra's reach, but
				// the operand still gets consistency-checked.
			}
			name := "_"
			if target != nil {
				name = target.Name()
			}
			w.addFlow(dimFlow{tp: tp, target: target, expr: as.Rhs[i], pos: as.Rhs[i].Pos(),
				note: "assigned to " + name})
		}
		return
	}
	// Multi-value assignment from a single call: pair each target with
	// the callee's corresponding result object.
	if len(as.Rhs) != 1 {
		return
	}
	call, ok := ast.Unparen(as.Rhs[0]).(*ast.CallExpr)
	if !ok {
		return
	}
	callee := calleeObjectOf(tp, call)
	fn, ok := callee.(*types.Func)
	if !ok {
		return
	}
	sig := fn.Type().(*types.Signature)
	if sig.Results().Len() != len(as.Lhs) {
		return
	}
	for i, lhs := range as.Lhs {
		target := slotObject(tp, lhs)
		if target == nil {
			continue
		}
		w.addFlow(dimFlow{tp: tp, target: target, src: sig.Results().At(i), pos: lhs.Pos(),
			note: fmt.Sprintf("assigned to %s from result of %s", target.Name(), fn.Name())})
	}
}

func (w *dimWorld) flowReturn(tp *TypedPackage, ret *ast.ReturnStmt, sig *types.Signature) {
	if sig == nil || len(ret.Results) != sig.Results().Len() {
		return
	}
	for i, e := range ret.Results {
		w.addFlow(dimFlow{tp: tp, target: sig.Results().At(i), expr: e, pos: e.Pos(),
			note: "returned"})
	}
}

func (w *dimWorld) flowCall(tp *TypedPackage, call *ast.CallExpr) {
	if tv, ok := tp.Info.Types[call.Fun]; ok && tv.IsType() {
		return // a conversion: eval passes the operand's dimension through
	}
	callee := calleeObjectOf(tp, call)
	fn, ok := callee.(*types.Func)
	if !ok {
		// Calls the graph cannot see into: still consistency-check each
		// argument expression.
		for _, arg := range call.Args {
			w.addFlow(dimFlow{tp: tp, expr: arg, pos: arg.Pos()})
		}
		return
	}
	sig := fn.Type().(*types.Signature)
	params := sig.Params()
	for i, arg := range call.Args {
		var param *types.Var
		switch {
		case i < params.Len()-1 || (i == params.Len()-1 && !sig.Variadic()):
			param = params.At(i)
		case sig.Variadic() && params.Len() > 0:
			// The variadic tail: every element answers to the variadic
			// parameter, whose node carries the element dimension (the
			// container convention — typeDim and eval unwrap slices).
			param = params.At(params.Len() - 1)
		}
		if param == nil {
			continue
		}
		name := param.Name()
		if name == "" || name == "_" {
			w.addFlow(dimFlow{tp: tp, expr: arg, pos: arg.Pos()})
			continue
		}
		w.addFlow(dimFlow{tp: tp, target: param, expr: arg, pos: arg.Pos(),
			note: fmt.Sprintf("passed as %s to %s", name, fn.Name())})
	}
}

func (w *dimWorld) flowCompositeLit(tp *TypedPackage, lit *ast.CompositeLit) {
	t := tp.Info.TypeOf(lit)
	if t == nil {
		return
	}
	st, isStruct := t.Underlying().(*types.Struct)
	for i, elt := range lit.Elts {
		if kv, ok := elt.(*ast.KeyValueExpr); ok {
			key, ok := kv.Key.(*ast.Ident)
			if !ok {
				w.addFlow(dimFlow{tp: tp, expr: kv.Value, pos: kv.Value.Pos()})
				continue
			}
			if obj := tp.Info.Uses[key]; obj != nil && isStruct {
				w.addFlow(dimFlow{tp: tp, target: obj, expr: kv.Value, pos: kv.Value.Pos(),
					note: "set field " + key.Name})
			} else {
				w.addFlow(dimFlow{tp: tp, expr: kv.Value, pos: kv.Value.Pos()})
			}
			continue
		}
		if isStruct && i < st.NumFields() {
			w.addFlow(dimFlow{tp: tp, target: st.Field(i), expr: elt, pos: elt.Pos(),
				note: "set field " + st.Field(i).Name()})
		} else {
			w.addFlow(dimFlow{tp: tp, expr: elt, pos: elt.Pos()})
		}
	}
}

// calleeObjectOf resolves a call expression to its function object, or
// nil for calls through function values. Shared with the
// interprocedural tier's call-graph builder.
func calleeObjectOf(tp *TypedPackage, call *ast.CallExpr) types.Object {
	switch fun := ast.Unparen(call.Fun).(type) {
	case *ast.Ident:
		if o := tp.Info.Uses[fun]; o != nil {
			if _, ok := o.(*types.Func); ok {
				return o
			}
		}
	case *ast.SelectorExpr:
		if o := tp.Info.Uses[fun.Sel]; o != nil {
			if _, ok := o.(*types.Func); ok {
				return o
			}
		}
	}
	return nil
}

// ---- phase 3: the solver --------------------------------------------

// solve propagates dimensions along the flows to a fixed point. The
// pass cap is a safety net: each pass either assigns at least one new
// node dimension (monotone — dimensions are set once and never
// retracted) or terminates, so the cap is never the limiting factor on
// a sane module.
func (w *dimWorld) solve() {
	for pass := 0; pass < 64; pass++ {
		w.changed = false
		for i := range w.flows {
			w.processFlow(&w.flows[i])
		}
		if !w.changed {
			return
		}
	}
}

func (w *dimWorld) processFlow(fl *dimFlow) {
	var val dimVal
	if fl.src != nil {
		val = w.nodeFor(fl.src).dimVal
	} else {
		val = w.eval(fl.tp, fl.expr)
	}
	if fl.target == nil {
		return
	}
	node := w.nodeFor(fl.target)
	if node.poly {
		return
	}
	switch {
	case val.known && !node.known:
		node.dimVal = dimVal{d: val.d, known: true,
			steps: appendStep(val.steps, dimStep{fl.pos, fl.note})}
		w.changed = true
	case val.known && node.known && val.d != node.d:
		// A compile-time-constant value adapts to its slot: the algebra
		// is scale-blind, and a constant carries no runtime provenance
		// to contradict (50*Nanosecond stored in an s/byte cost field is
		// a magnitude, not a mislabeled quantity).
		if fl.expr != nil {
			if _, konst := isConst(fl.tp, fl.expr); konst {
				return
			}
		}
		if node.seed == seedHard {
			w.flowConflict(fl, node, val)
			return
		}
		// Soft or inferred: the disagreement means the slot is generic
		// over dimension (a serialization helper's parameter, a reused
		// local). Demote it; it stops checking and stops propagating.
		node.dimVal = dimVal{}
		node.poly = true
		w.changed = true
	case !val.known && node.seed == seedHard && fl.expr != nil:
		// Back-propagation — from hard seeds only: a bare, dimensionless
		// object flowing into a directive- or name-seeded slot must
		// carry the slot's dimension. Soft and inferred slots do not
		// back-propagate; an inference chain relayed through a generic
		// helper's parameter would poison unrelated call sites.
		if obj := bareObject(fl.tp, fl.expr); obj != nil && obj != fl.target && numericish(obj.Type()) {
			src := w.nodeFor(obj)
			if !src.known && !src.poly {
				src.dimVal = dimVal{d: node.d, known: true,
					steps: appendStep(node.steps, dimStep{fl.pos, fmt.Sprintf("%s %s-dimensioned slot, so %s carries %s", fl.note, node.d, obj.Name(), node.d)})}
				w.changed = true
			}
		}
	}
}

// appendStep copies-and-appends so chains never alias across nodes.
func appendStep(steps []dimStep, s dimStep) []dimStep {
	out := make([]dimStep, 0, len(steps)+1)
	out = append(out, steps...)
	return append(out, s)
}

// bareObject reports the object behind a plain identifier or selector
// expression, or nil for anything composed.
func bareObject(tp *TypedPackage, e ast.Expr) types.Object {
	switch x := ast.Unparen(e).(type) {
	case *ast.Ident:
		if x.Name == "_" {
			return nil
		}
		return tp.Info.Uses[x]
	case *ast.SelectorExpr:
		if o := tp.Info.Uses[x.Sel]; o != nil {
			if _, ok := o.(*types.Var); ok {
				return o
			}
		}
	}
	return nil
}

func (w *dimWorld) flowConflict(fl *dimFlow, node *dimNode, val dimVal) {
	if node.conflicted {
		return
	}
	pos := fl.tp.Fset.Position(fl.pos)
	key := fmt.Sprintf("%s:%d:%d/%s", pos.Filename, pos.Line, pos.Column, fl.note)
	if w.conflictSeen[key] {
		return
	}
	w.conflictSeen[key] = true
	node.conflicted = true
	w.conflicts = append(w.conflicts, Diagnostic{
		Analyzer: dimName,
		File:     pos.Filename, Line: pos.Line, Col: pos.Column,
		Message: fmt.Sprintf("%s: %s value flows into %s slot; value: %s; slot: %s",
			fl.note, val.d, node.d, w.renderChain(val.steps), w.renderChain(node.steps)),
	})
}

func (w *dimWorld) exprConflict(tp *TypedPackage, pos token.Pos, op string, left, right dimVal) {
	p := tp.Fset.Position(pos)
	key := fmt.Sprintf("%s:%d:%d/expr", p.Filename, p.Line, p.Column)
	if w.conflictSeen[key] {
		return
	}
	w.conflictSeen[key] = true
	w.conflicts = append(w.conflicts, Diagnostic{
		Analyzer: dimName,
		File:     p.Filename, Line: p.Line, Col: p.Column,
		Message: fmt.Sprintf("%s %s %s without a *8 or /8 conversion; left: %s; right: %s",
			left.d, op, right.d, w.renderChain(left.steps), w.renderChain(right.steps)),
	})
}

// isConst reports whether e is a compile-time constant, and its value.
func isConst(tp *TypedPackage, e ast.Expr) (constant.Value, bool) {
	if tv, ok := tp.Info.Types[e]; ok && tv.Value != nil {
		return tv.Value, true
	}
	return nil, false
}

var constEight = constant.MakeInt64(8)

func isEight(v constant.Value) bool {
	if v.Kind() != constant.Int {
		return false
	}
	return constant.Compare(v, token.EQL, constEight)
}

// eval computes the dimension of an expression under the current node
// assignment, reporting add/sub/compare conflicts as it goes.
func (w *dimWorld) eval(tp *TypedPackage, e ast.Expr) dimVal {
	switch x := e.(type) {
	case *ast.ParenExpr:
		return w.eval(tp, x.X)
	case *ast.UnaryExpr:
		switch x.Op {
		case token.ADD, token.SUB, token.AND, token.XOR:
			return w.eval(tp, x.X)
		}
		return dimVal{}
	case *ast.StarExpr:
		return w.eval(tp, x.X)
	case *ast.IndexExpr:
		return w.eval(tp, x.X)
	case *ast.Ident:
		if obj := tp.Info.Uses[x]; obj != nil {
			switch obj.(type) {
			case *types.Var, *types.Const:
				return w.nodeFor(obj).dimVal
			}
		}
		return dimVal{}
	case *ast.SelectorExpr:
		if obj := tp.Info.Uses[x.Sel]; obj != nil {
			switch obj.(type) {
			case *types.Var, *types.Const:
				return w.nodeFor(obj).dimVal
			}
		}
		return dimVal{}
	case *ast.CallExpr:
		return w.evalCall(tp, x)
	case *ast.BinaryExpr:
		return w.evalBinary(tp, x)
	}
	return dimVal{}
}

func (w *dimWorld) evalCall(tp *TypedPackage, call *ast.CallExpr) dimVal {
	// A conversion preserves the operand's dimension: casts exist to
	// satisfy the type checker, not to change what a number measures.
	if tv, ok := tp.Info.Types[call.Fun]; ok && tv.IsType() && len(call.Args) == 1 {
		return w.eval(tp, call.Args[0])
	}
	fn, ok := calleeObjectOf(tp, call).(*types.Func)
	if !ok {
		return dimVal{}
	}
	sig, ok := fn.Type().(*types.Signature)
	if !ok || sig.Results().Len() != 1 {
		return dimVal{}
	}
	res := sig.Results().At(0)
	if v := w.nodeFor(res).dimVal; v.known {
		return dimVal{d: v.d, known: true,
			steps: appendStep(v.steps, dimStep{call.Pos(), "via call to " + fn.Name()})}
	}
	// Out-of-module functions have no scanned body, but their names
	// still speak: time.Duration.Seconds() is seconds.
	if d, ok := dimFromName(fn.Name()); ok && numericish(res.Type()) {
		return dimVal{d: d, known: true,
			steps: []dimStep{{call.Pos(), fmt.Sprintf("result of %s seeded %s (function name)", fn.Name(), d)}}}
	}
	return dimVal{}
}

func (w *dimWorld) evalBinary(tp *TypedPackage, b *ast.BinaryExpr) dimVal {
	switch b.Op {
	case token.ADD, token.SUB:
		left, right := w.eval(tp, b.X), w.eval(tp, b.Y)
		switch {
		case left.known && right.known:
			if left.d != right.d {
				w.exprConflict(tp, b.OpPos, b.Op.String(), left, right)
				return dimVal{}
			}
			return left
		case left.known:
			return left
		case right.known:
			return right
		}
		return dimVal{}
	case token.EQL, token.NEQ, token.LSS, token.GTR, token.LEQ, token.GEQ:
		left, right := w.eval(tp, b.X), w.eval(tp, b.Y)
		if left.known && right.known && left.d != right.d {
			w.exprConflict(tp, b.OpPos, b.Op.String(), left, right)
		}
		return dimVal{} // a bool carries no dimension
	case token.MUL:
		lv, lconst, lscale := w.mulOperand(tp, b.X)
		rv, rconst, rscale := w.mulOperand(tp, b.Y)
		switch {
		case lscale:
			// A scale-factor constant — a bare literal, an unseeded
			// const, or a pure-time const like Millisecond (the algebra
			// is scale-blind) — except the literal 8, the blessed
			// bit<->byte converter.
			v, _ := isConst(tp, b.X)
			return w.scaleOrConvert(tp, rv, v, false, b.OpPos)
		case rscale:
			v, _ := isConst(tp, b.Y)
			return w.scaleOrConvert(tp, lv, v, false, b.OpPos)
		case lv.known && rv.known:
			// Covers dimensioned conversion constants too: sampleHz *
			// bytesPerSample composes sample/s with byte/sample.
			return dimVal{d: lv.d.Mul(rv.d), known: true,
				steps: appendStep(lv.steps, dimStep{b.OpPos, fmt.Sprintf("multiplied by %s value", rv.d)})}
		case lv.known && !rconst:
			return lv // the unknown side is a dimensionless count
		case rv.known && !lconst:
			return rv
		}
		return dimVal{}
	case token.QUO:
		lv, lconst, _ := w.mulOperand(tp, b.X)
		rv, rconst, rscale := w.mulOperand(tp, b.Y)
		switch {
		case rscale:
			v, _ := isConst(tp, b.Y)
			return w.scaleOrConvert(tp, lv, v, true, b.OpPos)
		case lv.known && rv.known:
			return dimVal{d: lv.d.Div(rv.d), known: true,
				steps: appendStep(lv.steps, dimStep{b.OpPos, fmt.Sprintf("divided by %s value", rv.d)})}
		case lconst && rv.known:
			// A constant numerator over a dimensioned denominator is a
			// true inversion: 1/ArrivalsPerSec is a mean gap in seconds.
			return dimVal{d: rv.d.Inv(), known: true,
				steps: appendStep(rv.steps, dimStep{b.OpPos, "inverted (divided into a count)"})}
		case lv.known && rconst:
			return lv
		}
		// An unknown runtime operand on either side: the quotient's
		// dimension cannot be claimed (dividing by an unknown is not
		// dividing by a count — frame indexes over frame rates would
		// misreport as s/frame).
		return dimVal{}
	case token.SHL, token.SHR, token.REM, token.AND, token.OR, token.XOR, token.AND_NOT:
		return w.eval(tp, b.X)
	}
	return dimVal{}
}

// mulOperand characterizes one operand of a * or /: its dimension
// value, whether it is compile-time constant, and whether it acts as a
// pure scale factor. A constant is a scale factor when it carries no
// dimension (a bare literal, an unseeded const) or a pure power of
// time (Millisecond, Second — the scale-blind axis); a constant with
// any other dimension (bytesPerSample: byte/sample, a bit-rate const)
// is a genuine conversion factor and composes like a runtime value.
func (w *dimWorld) mulOperand(tp *TypedPackage, e ast.Expr) (v dimVal, konst, scale bool) {
	v = w.eval(tp, e)
	if _, konst = isConst(tp, e); !konst {
		return v, false, false
	}
	return v, true, !v.known || pureTimeDim(v.d)
}

// pureTimeDim reports a dimension that is s^k (including k=0, the
// dimensionless dimension).
func pureTimeDim(d Dim) bool {
	for i, e := range d.exp {
		if i != dimSec && e != 0 {
			return false
		}
	}
	return true
}

// scaleOrConvert applies a constant factor to a value: a no-op for the
// scale-blind algebra, except that *8 on bytes yields bits and /8 on
// bits yields bytes (the repo's one blessed conversion).
func (w *dimWorld) scaleOrConvert(tp *TypedPackage, v dimVal, c constant.Value, div bool, pos token.Pos) dimVal {
	if !v.known || !isEight(c) {
		return v
	}
	d := v.d
	switch {
	case !div && d.exp[dimByte] > 0:
		d.exp[dimBit] += d.exp[dimByte]
		d.exp[dimByte] = 0
		return dimVal{d: d, known: true, steps: appendStep(v.steps, dimStep{pos, "converted bytes to bits (*8)"})}
	case div && d.exp[dimBit] > 0:
		d.exp[dimByte] += d.exp[dimBit]
		d.exp[dimBit] = 0
		return dimVal{d: d, known: true, steps: appendStep(v.steps, dimStep{pos, "converted bits to bytes (/8)"})}
	}
	return v
}
