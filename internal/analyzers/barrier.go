package analyzers

// barrier is the inbox-discipline analyzer. The sharded engine's
// conservative-window argument (DESIGN.md §9) is: a message crossing a
// shard boundary is delivered at send-time plus a link latency that is
// never below router.DefaultSwitchCost, so a window of the minimum
// latency guarantees no shard can receive a message from the past.
// The crossing points are declared with //ctmsvet:crossing push|drain|
// peek <reason>; this analyzer checks the declared discipline:
//
//   1. every call to a push function computes its deliverAt argument
//      as now + latency: the first argument must contain a .Now() call
//      AND an added latency term — a bare Now() delivers into the
//      current window and breaks the no-messages-from-the-past
//      invariant, a missing Now() makes delivery absolute and
//      window-relative reasoning impossible;
//   2. push sites must not be call-graph-reachable from the package's
//      Run function: pushes happen on the sending half's goroutine
//      during its window, not from the barrier-stepping driver;
//   3. drain sites must be call-graph-reachable from Run: a drain
//      anywhere else would consume messages mid-window;
//   4. no function both pushes and drains — the two sides of an inbox
//      belong to different goroutines by construction;
//   5. a package containing push sites must somewhere compare a
//      latency against the DefaultSwitchCost floor (the guard that
//      makes rule 1's latency term actually ≥ the window) — the
//      engine's validation does this once, centrally, in Validate.
//
// peek-role crossings (end-of-run accounting like leftover counts) are
// exempt from the reachability rules: they read, they do not move
// messages.

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"strings"
)

// Barrier flags inbox pushes and drains that violate the declared
// window discipline.
var Barrier = &Analyzer{
	Name: "barrier",
	Doc:  "flag inbox pushes without now+latency delivery, pushes reachable from Run, and drains outside the barrier step",
	Tier: TierInter,
	Run:  runBarrier,
}

func runBarrier(p *Pass) {
	// Gather this package's crossing-annotated functions by role, and
	// the object for Run (the barrier-stepping entry point), if any.
	var runObj types.Object
	pushFns := make(map[types.Object]bool)
	drainFns := make(map[types.Object]bool)
	for _, f := range p.Pkg.Files {
		for _, decl := range f.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok {
				continue
			}
			obj := p.Pkg.Info.Defs[fd.Name]
			if obj == nil {
				continue
			}
			if fd.Name.Name == "Run" && fd.Recv != nil {
				runObj = obj
			}
			if c, ok := p.World.Crossing(obj); ok {
				switch c.role {
				case "push":
					pushFns[obj] = true
				case "drain":
					drainFns[obj] = true
				}
			}
		}
	}
	if len(pushFns) == 0 && len(drainFns) == 0 {
		return
	}

	var fromRun map[types.Object]bool
	if runObj != nil {
		fromRun = p.World.ReachableFrom(runObj)
	}

	// Rules 1-4 over every call site in the module that lands on one of
	// this package's crossings.
	sawPushSite := false
	for _, site := range p.World.sites {
		if pushFns[site.callee] {
			sawPushSite = true
			checkDeliverAt(p, site)
			if fromRun != nil && site.caller != nil && fromRun[site.caller] {
				pos := p.Pkg.Fset.Position(site.call.Pos())
				reportAt(p, site, pos,
					"push %s is call-graph-reachable from Run's barrier step; pushes belong to the sending half's window, not the driver", site.callee.Name())
			}
		}
		if drainFns[site.callee] && site.caller != nil {
			if fromRun != nil && !fromRun[site.caller] {
				pos := p.Pkg.Fset.Position(site.call.Pos())
				reportAt(p, site, pos,
					"drain %s called outside the barrier step (not reachable from Run); drains may only run at window boundaries", site.callee.Name())
			}
		}
	}

	// Rule 4: one function on both sides of an inbox.
	for caller, callees := range p.World.edges {
		pushes, drains := false, false
		for callee := range callees {
			if pushFns[callee] {
				pushes = true
			}
			if drainFns[callee] {
				drains = true
			}
		}
		if pushes && drains {
			p.Reportf(caller.Pos(),
				"%s both pushes to and drains an inbox; the two sides belong to different goroutines", caller.Name())
		}
	}

	// Rule 5: somewhere in a pushing package, a latency must be guarded
	// against the SwitchCost floor.
	if sawPushSite && len(pushFns) > 0 && !hasFloorGuard(p) {
		// Anchor the finding on the first push-annotated function.
		for _, f := range p.Pkg.Files {
			for _, decl := range f.Decls {
				fd, ok := decl.(*ast.FuncDecl)
				if !ok {
					continue
				}
				if obj := p.Pkg.Info.Defs[fd.Name]; obj != nil && pushFns[obj] {
					p.Reportf(fd.Name.Pos(),
						"package pushes into inboxes but never compares a latency against the SwitchCost floor; validate latency >= DefaultSwitchCost before building links")
					return
				}
			}
		}
	}
}

// reportAt reports at a position that may belong to another package's
// file: call sites live in the caller's package, but the pass runs per
// crossing-declaring package. The diagnostic carries the caller file so
// the finding lands where the fix goes.
func reportAt(p *Pass, site callSite, pos token.Position, format string, args ...any) {
	*p.diags = append(*p.diags, Diagnostic{
		Analyzer: p.Analyzer.Name,
		File:     pos.Filename,
		Line:     pos.Line,
		Col:      pos.Column,
		Message:  fmt.Sprintf(format, args...),
	})
}

// checkDeliverAt enforces rule 1 on one push call: the first argument
// is the delivery time and must be now + latency.
func checkDeliverAt(p *Pass, site callSite) {
	if len(site.call.Args) == 0 {
		return
	}
	deliverAt := site.call.Args[0]
	hasNow := exprContains(deliverAt, func(e ast.Expr) bool {
		call, ok := e.(*ast.CallExpr)
		if !ok {
			return false
		}
		sel, ok := call.Fun.(*ast.SelectorExpr)
		return ok && sel.Sel.Name == "Now"
	})
	hasLatency := exprContains(deliverAt, func(e ast.Expr) bool {
		bin, ok := e.(*ast.BinaryExpr)
		return ok && bin.Op.String() == "+"
	})
	pos := site.pkg.Fset.Position(site.call.Pos())
	switch {
	case !hasNow:
		reportAt(p, site, pos,
			"deliverAt for push %s has no .Now() term: absolute delivery times cannot be reasoned about window-relative", site.callee.Name())
	case !hasLatency:
		reportAt(p, site, pos,
			"deliverAt for push %s adds no latency to Now(): zero-latency delivery lands inside the current window and breaks the barrier invariant", site.callee.Name())
	}
}

// exprContains walks e looking for a subexpression matching pred.
func exprContains(e ast.Expr, pred func(ast.Expr) bool) bool {
	found := false
	ast.Inspect(e, func(n ast.Node) bool {
		if found {
			return false
		}
		if x, ok := n.(ast.Expr); ok && pred(x) {
			found = true
			return false
		}
		return true
	})
	return found
}

// hasFloorGuard reports whether any file in the package compares an
// operand whose text mentions Latency against an identifier whose name
// mentions SwitchCost (rule 5's shape: `l.Latency < router.
// DefaultSwitchCost` in the engine's Validate).
func hasFloorGuard(p *Pass) bool {
	found := false
	for _, f := range p.Pkg.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			if found {
				return false
			}
			bin, ok := n.(*ast.BinaryExpr)
			if !ok {
				return true
			}
			switch bin.Op.String() {
			case "<", "<=", ">", ">=":
			default:
				return true
			}
			mentions := func(e ast.Expr, frag string) bool {
				return exprContains(e, func(x ast.Expr) bool {
					switch v := x.(type) {
					case *ast.Ident:
						return strings.Contains(strings.ToLower(v.Name), frag)
					case *ast.SelectorExpr:
						return strings.Contains(strings.ToLower(v.Sel.Name), frag)
					}
					return false
				})
			}
			latVsFloor := (mentions(bin.X, "latency") && mentions(bin.Y, "switchcost")) ||
				(mentions(bin.Y, "latency") && mentions(bin.X, "switchcost"))
			if latVsFloor {
				found = true
				return false
			}
			return true
		})
	}
	return found
}
