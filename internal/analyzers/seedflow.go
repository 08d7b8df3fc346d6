package analyzers

// seedflow is the RNG-derivation analyzer. Fingerprint() equality
// between the serial oracle and any worker count holds only if every
// random draw is a pure function of the experiment seed: each RNG must
// be constructed from a seed that flows in as data (a parameter, a
// config field, a splitmix-salted derivation, a Fork of a parent), and
// each RNG must have exactly one consumer so draw order is fixed by
// program structure, not by who got to the stream first. The rules:
//
//   1. sim.NewRNG(<constant>) outside _test.go files — a literal seed
//      severs the chain from the experiment seed, so two call paths
//      can silently share one stream (the bug class PR 4's runtime
//      oracle can only catch if a regression seed happens to hit it);
//   2. one function handing the same *RNG to two consumers — passing
//      it to two calls, or storing it into two places; each consumer
//      must get its own Fork so adding a draw to one cannot shift the
//      other's stream;
//   3. an RNG draw inside a range-over-map body — map iteration order
//      is randomized per run, so draw order would differ run to run
//      even with a perfect seed chain.
//
// "sim.RNG" is matched by package name, like mbuflife matches the
// kernel package, so fixture mini-modules with a stub sim package
// exercise the same code paths the real tree does.

import (
	"go/ast"
	"go/types"
	"strings"
)

// Seedflow flags RNG constructions and uses that can break
// fingerprint determinism.
var Seedflow = &Analyzer{
	Name: "seedflow",
	Doc:  "flag literal RNG seeds, RNGs shared by two consumers, and draws inside map iteration",
	Tier: TierInter,
	Run:  runSeedflow,
}

func runSeedflow(p *Pass) {
	// loadPackage never parses _test.go files, so the "no literals
	// outside tests" scoping is structural: everything this pass sees
	// is non-test code.
	for _, f := range p.Pkg.Files {
		for _, decl := range f.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			checkSeedBody(p, fd)
		}
	}
}

func checkSeedBody(p *Pass, fd *ast.FuncDecl) {
	// locals maps simple `x := expr` definitions so seed-ness can be
	// traced one level back through a local temporary (sim.RNG's own
	// Fork builds its child seed in a local before calling NewRNG).
	locals := make(map[types.Object]ast.Expr)
	ast.Inspect(fd.Body, func(n ast.Node) bool {
		as, ok := n.(*ast.AssignStmt)
		if !ok || len(as.Lhs) != len(as.Rhs) {
			return true
		}
		for i, lhs := range as.Lhs {
			if id, ok := lhs.(*ast.Ident); ok {
				if obj := p.Pkg.Info.Defs[id]; obj != nil {
					locals[obj] = as.Rhs[i]
				}
			}
		}
		return true
	})

	// Rule 1: NewRNG argument provenance.
	ast.Inspect(fd.Body, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok || !isNewRNGCall(p, call) || len(call.Args) != 1 {
			return true
		}
		arg := call.Args[0]
		if tv, ok := p.Pkg.Info.Types[arg]; ok && tv.Value != nil {
			p.Reportf(call.Pos(),
				"NewRNG(%s): literal seed severs the derivation chain from the experiment seed; derive from a seed parameter or Fork a parent", types.ExprString(arg))
			return true
		}
		if !seedDerived(p, arg, locals, 0) {
			p.Reportf(call.Pos(),
				"NewRNG argument %s does not visibly derive from a seed; thread the experiment seed or Fork a parent RNG", types.ExprString(arg))
		}
		return true
	})

	// Rule 2: one *RNG object handed to more than one consumer.
	checkRNGHandoffs(p, fd)

	// Rule 3: draws inside range-over-map bodies.
	checkMapRangeDraws(p, fd)
}

// isNewRNGCall matches a call to func NewRNG in a package named sim.
func isNewRNGCall(p *Pass, call *ast.CallExpr) bool {
	var id *ast.Ident
	switch fun := ast.Unparen(call.Fun).(type) {
	case *ast.Ident:
		id = fun
	case *ast.SelectorExpr:
		id = fun.Sel
	default:
		return false
	}
	if id.Name != "NewRNG" {
		return false
	}
	obj := p.Pkg.Info.Uses[id]
	return obj != nil && obj.Pkg() != nil && obj.Pkg().Name() == "sim"
}

// isRNGType reports whether t is (a pointer to) type RNG from a
// package named sim.
func isRNGType(t types.Type) bool {
	if ptr, ok := types.Unalias(t).(*types.Pointer); ok {
		t = ptr.Elem()
	}
	named, ok := types.Unalias(t).(*types.Named)
	if !ok {
		return false
	}
	obj := named.Obj()
	return obj.Name() == "RNG" && obj.Pkg() != nil && obj.Pkg().Name() == "sim"
}

// seedDerived reports whether the expression visibly carries seed
// provenance: an identifier or selector whose name mentions "seed", a
// call to Fork or a mix/splitmix helper, or an arithmetic combination
// of such parts. depth bounds back-substitution through locals.
func seedDerived(p *Pass, e ast.Expr, locals map[types.Object]ast.Expr, depth int) bool {
	if depth > 4 || e == nil {
		return false
	}
	switch x := ast.Unparen(e).(type) {
	case *ast.Ident:
		if seedName(x.Name) {
			return true
		}
		if obj := p.Pkg.Info.Uses[x]; obj != nil {
			if def, ok := locals[obj]; ok {
				return seedDerived(p, def, locals, depth+1)
			}
		}
		return false
	case *ast.SelectorExpr:
		return seedName(x.Sel.Name) || seedDerived(p, x.X, locals, depth+1)
	case *ast.CallExpr:
		if name := callName(x); name == "Fork" || seedName(name) || strings.Contains(strings.ToLower(name), "mix") {
			return true
		}
		for _, arg := range x.Args {
			if seedDerived(p, arg, locals, depth+1) {
				return true
			}
		}
		return false
	case *ast.BinaryExpr:
		return seedDerived(p, x.X, locals, depth+1) || seedDerived(p, x.Y, locals, depth+1)
	case *ast.UnaryExpr:
		return seedDerived(p, x.X, locals, depth+1)
	}
	return false
}

func seedName(name string) bool {
	return strings.Contains(strings.ToLower(name), "seed")
}

func callName(call *ast.CallExpr) string {
	switch fun := ast.Unparen(call.Fun).(type) {
	case *ast.Ident:
		return fun.Name
	case *ast.SelectorExpr:
		return fun.Sel.Name
	}
	return ""
}

// checkRNGHandoffs counts, per *RNG-typed object, the places one
// function hands the stream to a consumer: passing it as an argument
// to a call that is not one of the RNG's own methods, storing it into
// a struct field, or placing it in a composite literal. More than one
// handoff means two consumers share draw order; each should get a Fork.
func checkRNGHandoffs(p *Pass, fd *ast.FuncDecl) {
	type handoff struct {
		pos   ast.Node
		count int
	}
	handoffs := make(map[types.Object]*handoff)
	record := func(e ast.Expr, site ast.Node) {
		id, ok := ast.Unparen(e).(*ast.Ident)
		if !ok {
			return
		}
		obj := p.Pkg.Info.Uses[id]
		if obj == nil || !isRNGType(obj.Type()) {
			return
		}
		h := handoffs[obj]
		if h == nil {
			h = &handoff{}
			handoffs[obj] = h
		}
		h.count++
		h.pos = site
		if h.count == 2 {
			p.Reportf(site.Pos(),
				"*sim.RNG %s handed to a second consumer in %s; Fork a child per consumer so draw orders cannot interleave",
				id.Name, fd.Name.Name)
		}
	}
	ast.Inspect(fd.Body, func(n ast.Node) bool {
		switch x := n.(type) {
		case *ast.CallExpr:
			// A call on the RNG itself (r.Uniform(), r.Fork()) is a
			// draw, not a handoff.
			for _, arg := range x.Args {
				record(arg, x)
			}
		case *ast.CompositeLit:
			for _, el := range x.Elts {
				if kv, ok := el.(*ast.KeyValueExpr); ok {
					record(kv.Value, kv)
				} else {
					record(el, el)
				}
			}
		case *ast.AssignStmt:
			for i, lhs := range x.Lhs {
				if i >= len(x.Rhs) {
					break
				}
				// Storing into a field publishes the stream to
				// whoever holds the struct.
				if _, isSel := lhs.(*ast.SelectorExpr); isSel {
					record(x.Rhs[i], x)
				}
			}
		}
		return true
	})
}

// checkMapRangeDraws flags RNG method calls lexically inside a
// range-over-map body.
func checkMapRangeDraws(p *Pass, fd *ast.FuncDecl) {
	ast.Inspect(fd.Body, func(n ast.Node) bool {
		rng, ok := n.(*ast.RangeStmt)
		if !ok {
			return true
		}
		t := p.TypeOf(rng.X)
		if t == nil {
			return true
		}
		if _, isMap := t.Underlying().(*types.Map); !isMap {
			return true
		}
		ast.Inspect(rng.Body, func(m ast.Node) bool {
			call, ok := m.(*ast.CallExpr)
			if !ok {
				return true
			}
			sel, ok := call.Fun.(*ast.SelectorExpr)
			if !ok {
				return true
			}
			if isRNGType(p.TypeOf(sel.X)) {
				p.Reportf(call.Pos(),
					"RNG draw %s.%s inside a range-over-map body: map order is randomized per run, so draw order is nondeterministic",
					types.ExprString(sel.X), sel.Sel.Name)
			}
			return true
		})
		return true
	})
}
