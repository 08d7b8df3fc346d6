package analyzers

// This file is the World: the module-wide fact base one RunModule run
// shares between its analyzers. The syntactic and typed tiers reason
// one package, one function at a time; the invariants the sharded
// engine (internal/topo, DESIGN.md §9) stakes its bit-identity claim on
// are neither: whether a *sim.Scheduler can leak from its owning shard
// is a question about pointer flow across internal/topo,
// internal/router and internal/sim together, and whether an inbox drain
// can run outside the barrier step is a question about the call graph
// rooted at Run. So when a run selects an inter analyzer, the World
// scans the whole module once for:
//
//   - the set of types annotated //ctmsvet:shardowned (a doc-comment
//     line on the type declaration, like //ctmsvet:enum), plus the
//     transitive "shard-reachable" closure over struct fields, pointers,
//     slices, arrays, maps and channels (function and interface types
//     are opaque: ownership cannot flow through a value the analysis
//     cannot see into);
//   - the functions annotated //ctmsvet:crossing <role> <reason> — the
//     blessed points where shard state may cross a goroutine boundary.
//     Roles are push (sender-side enqueue), drain (receiver-side dequeue
//     at a window boundary) and peek (read-only end-of-run accounting);
//     the reason is mandatory, exactly as for //ctmsvet:allow;
//   - a static call graph: every resolvable call edge in the module,
//     with calls inside function literals attributed to the enclosing
//     declaration (the scheduler runs callbacks on the owning shard's
//     goroutine, so a closure scheduled from a function shares that
//     function's ownership context).
//
// Three analyzers read these facts: shardowned (ownership escapes),
// seedflow (RNG derivation and sharing) and barrier (inbox discipline).
// They report in the sim-critical packages only, but the facts are
// module-wide, so an annotation in internal/sim is visible to a check
// in internal/topo. The World also caches the dim tier's module-wide
// solve (dimFindings, dimflow.go), run on the dim analyzer's first
// package.

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"slices"
	"strings"
)

// The ownership and crossing directives. Both are doc-comment lines,
// parsed with the same totality discipline as //ctmsvet:allow (the
// fuzz tests hold parseCrossingDirective to it).
const (
	shardownedDirective = "//ctmsvet:shardowned"
	crossingPrefix      = "//ctmsvet:crossing"
)

// crossingRoles is the vocabulary of //ctmsvet:crossing <role> <reason>.
var crossingRoles = map[string]bool{"push": true, "drain": true, "peek": true}

// parseCrossingDirective parses one comment's text. ok reports whether
// the comment is a crossing directive at all; malformed-but-recognized
// directives return ok with an empty or unknown role or an empty
// reason, which World.validate turns into findings. Total over any
// input, like parseAllowDirective.
func parseCrossingDirective(text string) (role, reason string, ok bool) {
	rest, ok := strings.CutPrefix(text, crossingPrefix)
	if !ok {
		return "", "", false
	}
	role, reason, _ = strings.Cut(strings.TrimSpace(rest), " ")
	return role, strings.TrimSpace(reason), true
}

// hasShardownedDirective reports whether any of the comment groups
// carries the bare //ctmsvet:shardowned line.
func hasShardownedDirective(cgs ...*ast.CommentGroup) bool {
	for _, cg := range cgs {
		if cg == nil {
			continue
		}
		for _, c := range cg.List {
			if strings.TrimSpace(c.Text) == shardownedDirective {
				return true
			}
		}
	}
	return false
}

// crossing is one blessed ownership-boundary function.
type crossing struct {
	role   string
	reason string
	pos    token.Pos
}

// callSite is one resolvable call in the module: the callee object, the
// enclosing function declaration (calls inside function literals are
// attributed to the declaration that lexically contains them), and the
// package the call appears in.
type callSite struct {
	pkg    *TypedPackage
	caller types.Object // nil for calls in package-level initializers
	callee types.Object
	call   *ast.CallExpr
}

// World is the module-wide fact base of one RunModule run: the inter
// tier's annotations, shard-reachability closure and call graph, and
// the dim tier's solved findings.
type World struct {
	Mod *Module

	shardOwned map[*types.TypeName]bool
	crossings  map[types.Object]crossing
	malformed  []Diagnostic // directive-placement and -syntax findings

	sites []callSite
	edges map[types.Object]map[types.Object]bool // caller -> callees

	reach map[types.Type]bool // memo: type reaches a shardowned type

	dim []Diagnostic // the dim solve's findings; nil until first asked
}

// newWorld starts a run's World. The inter facts are scanned from every
// package of the module up front when as selects an inter analyzer, and
// not at all otherwise.
func newWorld(mod *Module, as []*Analyzer) *World {
	w := &World{
		Mod:        mod,
		shardOwned: make(map[*types.TypeName]bool),
		crossings:  make(map[types.Object]crossing),
		edges:      make(map[types.Object]map[types.Object]bool),
		reach:      make(map[types.Type]bool),
	}
	if slices.ContainsFunc(as, func(a *Analyzer) bool { return a.Tier == TierInter }) {
		for _, tp := range mod.Packages() {
			w.scanAnnotations(tp)
			w.scanCalls(tp)
		}
	}
	return w
}

// scanAnnotations collects //ctmsvet:shardowned type marks and
// //ctmsvet:crossing function marks, validating placement and shape.
// Malformed directives become findings (attributed to the suite name,
// like malformed allows); run reports them in a package an inter analyzer
// ran over.
func (w *World) scanAnnotations(tp *TypedPackage) {
	for _, f := range tp.Files {
		for _, decl := range f.Decls {
			switch d := decl.(type) {
			case *ast.GenDecl:
				for _, spec := range d.Specs {
					ts, ok := spec.(*ast.TypeSpec)
					if !ok {
						continue
					}
					if hasShardownedDirective(d.Doc, ts.Doc) {
						if tn, ok := tp.Info.Defs[ts.Name].(*types.TypeName); ok {
							w.shardOwned[tn] = true
						}
					}
				}
			case *ast.FuncDecl:
				role, reason, ok := w.funcCrossing(tp, d)
				if !ok {
					continue
				}
				obj := tp.Info.Defs[d.Name]
				if obj == nil {
					continue
				}
				w.crossings[obj] = crossing{role: role, reason: reason, pos: d.Pos()}
			}
		}
		// Directives on anything but their own declaration kind rot
		// silently; sweep every comment for misplaced or malformed ones.
		w.validateDirectives(tp, f)
	}
}

// funcCrossing extracts a crossing directive from a function's doc.
func (w *World) funcCrossing(tp *TypedPackage, fd *ast.FuncDecl) (role, reason string, ok bool) {
	if fd.Doc == nil {
		return "", "", false
	}
	for _, c := range fd.Doc.List {
		if r, rs, isCrossing := parseCrossingDirective(c.Text); isCrossing {
			return r, rs, true
		}
	}
	return "", "", false
}

// validateDirectives reports malformed crossing directives: a missing
// role, an unknown role, or a missing reason. Placement is implicitly
// validated by funcCrossing only reading function docs: a crossing
// comment elsewhere is still swept up here for shape errors, so a typo
// never silently un-blesses a function.
func (w *World) validateDirectives(tp *TypedPackage, f *ast.File) {
	for _, cg := range f.Comments {
		for _, c := range cg.List {
			role, reason, ok := parseCrossingDirective(c.Text)
			if !ok {
				continue
			}
			pos := tp.Fset.Position(c.Pos())
			switch {
			case role == "":
				w.malformed = append(w.malformed, Diagnostic{
					Analyzer: "ctmsvet", File: pos.Filename, Line: pos.Line, Col: 1,
					Message: "crossing directive names no role (want //ctmsvet:crossing <push|drain|peek> <reason>)",
				})
			case !crossingRoles[role]:
				w.malformed = append(w.malformed, Diagnostic{
					Analyzer: "ctmsvet", File: pos.Filename, Line: pos.Line, Col: 1,
					Message: fmt.Sprintf("crossing directive names unknown role %q (valid: push, drain, peek)", role),
				})
			case reason == "":
				w.malformed = append(w.malformed, Diagnostic{
					Analyzer: "ctmsvet", File: pos.Filename, Line: pos.Line, Col: 1,
					Message: fmt.Sprintf("crossing directive for role %q is missing its mandatory reason", role),
				})
			}
		}
	}
}

// scanCalls records every resolvable call edge in the package. Function
// literals do not get their own node: a call inside a closure belongs
// to the enclosing declaration, because closures run (immediately, via
// the scheduler, or as stored callbacks) in the ownership context that
// built them — which is exactly the property the barrier analyzer's
// reachability model needs.
func (w *World) scanCalls(tp *TypedPackage) {
	for _, f := range tp.Files {
		for _, decl := range f.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			caller := types.Object(nil)
			if o := tp.Info.Defs[fd.Name]; o != nil {
				caller = o
			}
			ast.Inspect(fd.Body, func(n ast.Node) bool {
				call, ok := n.(*ast.CallExpr)
				if !ok {
					return true
				}
				callee := calleeObjectOf(tp, call)
				if callee == nil {
					return true
				}
				w.sites = append(w.sites, callSite{pkg: tp, caller: caller, callee: callee, call: call})
				if caller != nil {
					m := w.edges[caller]
					if m == nil {
						m = make(map[types.Object]bool)
						w.edges[caller] = m
					}
					m[callee] = true
				}
				return true
			})
		}
	}
}

// Crossing reports the crossing annotation on a function object.
func (w *World) Crossing(obj types.Object) (crossing, bool) {
	c, ok := w.crossings[obj]
	return c, ok
}

// ReachableFrom computes the set of function objects reachable from the
// roots over the static call graph.
func (w *World) ReachableFrom(roots ...types.Object) map[types.Object]bool {
	seen := make(map[types.Object]bool)
	queue := append([]types.Object(nil), roots...)
	for len(queue) > 0 {
		o := queue[0]
		queue = queue[1:]
		if o == nil || seen[o] {
			continue
		}
		seen[o] = true
		for callee := range w.edges[o] {
			if !seen[callee] {
				queue = append(queue, callee)
			}
		}
	}
	return seen
}

// ShardReachable reports whether t can reach a //ctmsvet:shardowned
// type through struct fields, pointers, slices, arrays, maps or
// channels. Function and interface types are opaque — ownership cannot
// be traced through a value the analysis cannot look into — which is
// the documented approximation boundary: handing shard state to a
// goroutine hidden behind an interface needs a reasoned allow on the
// store that boxed it.
func (w *World) ShardReachable(t types.Type) bool {
	if t == nil {
		return false
	}
	if v, ok := w.reach[t]; ok {
		return v
	}
	v := w.reaches(t, make(map[types.Type]bool))
	w.reach[t] = v
	return v
}

func (w *World) reaches(t types.Type, seen map[types.Type]bool) bool {
	if t == nil || seen[t] {
		return false
	}
	seen[t] = true
	switch x := t.(type) {
	case *types.Alias:
		return w.reaches(types.Unalias(x), seen)
	case *types.Named:
		if w.shardOwned[x.Obj()] {
			return true
		}
		return w.reaches(x.Underlying(), seen)
	case *types.Pointer:
		return w.reaches(x.Elem(), seen)
	case *types.Slice:
		return w.reaches(x.Elem(), seen)
	case *types.Array:
		return w.reaches(x.Elem(), seen)
	case *types.Chan:
		return w.reaches(x.Elem(), seen)
	case *types.Map:
		return w.reaches(x.Key(), seen) || w.reaches(x.Elem(), seen)
	case *types.Struct:
		for i := 0; i < x.NumFields(); i++ {
			if w.reaches(x.Field(i).Type(), seen) {
				return true
			}
		}
	}
	return false
}
