package analyzers

// shardowned is the ownership-escape analyzer. The sharded engine's
// bit-identity claim (DESIGN.md §9) rests on every shard's mutable
// state — its scheduler, rings, machines, playout buffers, RNGs — being
// touched by exactly one goroutine between barriers. A type opts into
// that contract with //ctmsvet:shardowned on its declaration; this
// analyzer then flags the ways such state can leave its owner:
//
//   1. a package-level variable whose type can reach a shardowned type
//      (a global is reachable from every goroutine by construction);
//   2. an assignment that stores a shard-reachable value into a
//      package-level variable;
//   3. a go statement whose function literal captures, or whose call
//      passes, shard-reachable values — handing state to a new
//      goroutine. The engine's own worker spawn is exactly this and
//      carries a reasoned //ctmsvet:allow: the spawn site is where the
//      ownership transfer is argued, once, in text;
//   4. a channel send of a shard-reachable value (channels are how
//      state walks to another goroutine without a go statement);
//   5. a function that locks a sync.Mutex or sync.RWMutex while
//      touching shard-reachable state must be annotated
//      //ctmsvet:crossing <role> <reason> — a mutex around shard state
//      means two goroutines expect to touch it, which is only legal at
//      the blessed inbox boundary (put/drain/leftover in the engine).

import (
	"go/ast"
	"go/types"
)

// Shardowned flags shard-owned state escaping its owning goroutine.
var Shardowned = &Analyzer{
	Name: "shardowned",
	Doc:  "flag //ctmsvet:shardowned state reaching globals, other goroutines, or unblessed mutex sections",
	Tier: TierInter,
	Run:  runShardowned,
}

func runShardowned(p *Pass) {
	for _, f := range p.Pkg.Files {
		for _, decl := range f.Decls {
			switch d := decl.(type) {
			case *ast.GenDecl:
				checkShardGlobals(p, d)
			case *ast.FuncDecl:
				if d.Body == nil {
					continue
				}
				checkShardBody(p, d)
			}
		}
	}
}

// checkShardGlobals flags package-level variables that can reach
// shard-owned state (rule 1).
func checkShardGlobals(p *Pass, d *ast.GenDecl) {
	for _, spec := range d.Specs {
		vs, ok := spec.(*ast.ValueSpec)
		if !ok {
			continue
		}
		for _, name := range vs.Names {
			obj := p.Pkg.Info.Defs[name]
			v, ok := obj.(*types.Var)
			if !ok || name.Name == "_" {
				continue
			}
			if p.World.ShardReachable(v.Type()) {
				p.Reportf(name.Pos(),
					"package-level var %s can reach shardowned state (type %s); shard state must live inside its owning shard",
					name.Name, v.Type())
			}
		}
	}
}

// checkShardBody walks one function for rules 2-5.
func checkShardBody(p *Pass, fd *ast.FuncDecl) {
	locksMutex := false
	var shardTouch ast.Node // first shard-reachable expression seen
	ast.Inspect(fd.Body, func(n ast.Node) bool {
		switch x := n.(type) {
		case *ast.AssignStmt:
			checkShardAssign(p, x)
		case *ast.GoStmt:
			checkShardGo(p, x)
			return false // the spawned body runs on the new goroutine; rules 2-4 inside it would double-report
		case *ast.SendStmt:
			if p.World.ShardReachable(p.TypeOf(x.Value)) {
				p.Reportf(x.Arrow,
					"channel send of shard-reachable value (type %s); shard state may only cross via a //ctmsvet:crossing inbox function",
					p.TypeOf(x.Value))
			}
		case *ast.CallExpr:
			if isMutexLock(p, x) {
				locksMutex = true
			}
		case ast.Expr:
			if shardTouch == nil && p.World.ShardReachable(p.TypeOf(x)) {
				shardTouch = x
			}
		}
		return true
	})
	// Rule 5: mutex + shard state in one function body is a crossing
	// point and must say so.
	if locksMutex && shardTouch != nil {
		obj := p.Pkg.Info.Defs[fd.Name]
		if _, blessed := p.World.Crossing(obj); !blessed {
			p.Reportf(fd.Name.Pos(),
				"%s locks a mutex while touching shard-reachable state; annotate //ctmsvet:crossing <push|drain|peek> <reason> if this is a blessed inbox boundary",
				fd.Name.Name)
		}
	}
}

// checkShardAssign flags stores of shard-reachable values into
// package-level variables (rule 2). Field stores into locals stay
// legal: ownership is about which goroutine can see the value, and a
// local composite is still confined.
func checkShardAssign(p *Pass, as *ast.AssignStmt) {
	for i, lhs := range as.Lhs {
		if i >= len(as.Rhs) && len(as.Rhs) != 1 {
			break
		}
		rhs := as.Rhs[0]
		if len(as.Rhs) == len(as.Lhs) {
			rhs = as.Rhs[i]
		}
		id, ok := ast.Unparen(lhs).(*ast.Ident)
		if !ok {
			continue
		}
		v, ok := p.Pkg.Info.Uses[id].(*types.Var)
		if !ok || v.Parent() == nil || v.Parent() != v.Pkg().Scope() {
			continue // not a package-level variable
		}
		if p.World.ShardReachable(p.TypeOf(rhs)) {
			p.Reportf(as.Pos(),
				"store of shard-reachable value (type %s) into package-level var %s",
				p.TypeOf(rhs), id.Name)
		}
	}
}

// checkShardGo flags go statements that hand shard-reachable state to
// the new goroutine (rule 3): by argument, by method receiver, or by
// closure capture.
func checkShardGo(p *Pass, g *ast.GoStmt) {
	for _, arg := range g.Call.Args {
		if p.World.ShardReachable(p.TypeOf(arg)) {
			p.Reportf(g.Pos(),
				"go statement passes shard-reachable value (type %s) to a new goroutine", p.TypeOf(arg))
			return
		}
	}
	switch fun := ast.Unparen(g.Call.Fun).(type) {
	case *ast.SelectorExpr:
		if p.World.ShardReachable(p.TypeOf(fun.X)) {
			p.Reportf(g.Pos(),
				"go statement runs a method on shard-reachable receiver (type %s)", p.TypeOf(fun.X))
		}
	case *ast.FuncLit:
		if cap, t := shardCapture(p, fun); cap != nil {
			p.Reportf(g.Pos(),
				"go statement's closure captures shard-reachable %s (type %s)", cap.Name, t)
		}
	}
}

// shardCapture finds a free identifier of the function literal whose
// type is shard-reachable: a variable used inside the literal but
// declared outside it.
func shardCapture(p *Pass, lit *ast.FuncLit) (*ast.Ident, types.Type) {
	var found *ast.Ident
	var foundType types.Type
	ast.Inspect(lit.Body, func(n ast.Node) bool {
		if found != nil {
			return false
		}
		id, ok := n.(*ast.Ident)
		if !ok {
			return true
		}
		v, ok := p.Pkg.Info.Uses[id].(*types.Var)
		if !ok {
			return true
		}
		// Declared outside the literal?
		if v.Pos() >= lit.Pos() && v.Pos() <= lit.End() {
			return true
		}
		if p.World.ShardReachable(v.Type()) {
			found, foundType = id, v.Type()
		}
		return true
	})
	return found, foundType
}

// isMutexLock reports whether the call is (*sync.Mutex).Lock/Unlock or
// the RWMutex equivalents, on any receiver.
func isMutexLock(p *Pass, call *ast.CallExpr) bool {
	sel, ok := call.Fun.(*ast.SelectorExpr)
	if !ok {
		return false
	}
	switch sel.Sel.Name {
	case "Lock", "Unlock", "RLock", "RUnlock":
	default:
		return false
	}
	fn, ok := p.Pkg.Info.Uses[sel.Sel].(*types.Func)
	if !ok {
		return false
	}
	sig, ok := fn.Type().(*types.Signature)
	if !ok || sig.Recv() == nil {
		return false
	}
	ptr, ok := sig.Recv().Type().(*types.Pointer)
	if !ok {
		return false
	}
	named, ok := types.Unalias(ptr.Elem()).(*types.Named)
	if !ok {
		return false
	}
	obj := named.Obj()
	return obj.Pkg() != nil && obj.Pkg().Path() == "sync" &&
		(obj.Name() == "Mutex" || obj.Name() == "RWMutex")
}
