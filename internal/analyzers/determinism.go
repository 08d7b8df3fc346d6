package analyzers

import "go/ast"

// Determinism enforces the reproduction's headline property — the same
// seed and config produce bit-identical results at any parallelism — at
// the source level. In sim-critical packages it forbids:
//
//   - wall-clock reads (time.Now, time.Since, time.Sleep, timers): the
//     simulation has exactly one clock, sim.Scheduler's, and anything
//     else leaks host timing into results;
//   - the top-level math/rand generator (rand.Intn, rand.Float64, ...):
//     it is process-global and shared across goroutines, so draws depend
//     on worker interleaving. Only constructing a seeded *rand.Rand
//     (rand.New, rand.NewSource — what sim.RNG wraps) is allowed;
//   - ranging over a map while appending to a slice, sending on a
//     channel, or emitting trace events: map iteration order is
//     randomized per run, so the collected order is too. Collect keys,
//     sort, then range the sorted slice — or annotate the sort-after
//     pattern with //ctmsvet:allow determinism <reason>.
var Determinism = &Analyzer{
	Name: "determinism",
	Doc:  "forbid wall-clock, global math/rand, and order-dependent map iteration in sim-critical packages",
	Tier: TierSyntactic,
	Run:  runDeterminism,
}

// wallClockFuncs are the time package entry points that observe or wait
// on the host clock. time.Since and time.Until call time.Now internally,
// so they are banned alongside it.
var wallClockFuncs = map[string]bool{
	"Now": true, "Since": true, "Until": true, "Sleep": true,
	"After": true, "AfterFunc": true, "Tick": true,
	"NewTimer": true, "NewTicker": true,
}

// seededRandCtors are the only math/rand names allowed: they build the
// seeded, per-subsystem generators sim.RNG wraps.
var seededRandCtors = map[string]bool{"New": true, "NewSource": true}

func runDeterminism(p *Pass) {
	for _, f := range p.Pkg.Files {
		f := f
		mapNames := packageMapNames(p, f)
		for _, decl := range f.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			local := localMapNames(p, fd)
			for k, v := range mapNames {
				if _, shadowed := local[k]; !shadowed {
					local[k] = v
				}
			}
			ast.Inspect(fd.Body, func(n ast.Node) bool {
				switch node := n.(type) {
				case *ast.CallExpr:
					checkForbiddenCall(p, f, node)
				case *ast.RangeStmt:
					checkMapRange(p, f, node, local)
				case *ast.FuncLit:
					// Closures inherit the enclosing scope; keep walking.
				}
				return true
			})
		}
	}
}

func checkForbiddenCall(p *Pass, f *ast.File, call *ast.CallExpr) {
	sel, ok := call.Fun.(*ast.SelectorExpr)
	if !ok {
		return
	}
	id, ok := sel.X.(*ast.Ident)
	if !ok {
		return
	}
	switch importPathOf(f, id.Name) {
	case "time":
		if wallClockFuncs[sel.Sel.Name] {
			p.Reportf(call.Pos(),
				"time.%s reads the wall clock; sim-critical code must use the sim.Scheduler clock",
				sel.Sel.Name)
		}
	case "math/rand", "math/rand/v2":
		if !seededRandCtors[sel.Sel.Name] {
			p.Reportf(call.Pos(),
				"rand.%s draws from the process-global generator; use a seeded *rand.Rand via sim.RNG",
				sel.Sel.Name)
		}
	}
}

// checkMapRange flags `for ... := range m` over a map whose body builds
// order-dependent output. mapNames holds identifiers known (by local,
// syntactic inference) to be map-typed.
func checkMapRange(p *Pass, f *ast.File, rs *ast.RangeStmt, mapNames map[string]bool) {
	if !isMapExpr(p, f, rs.X, mapNames) {
		return
	}
	ast.Inspect(rs.Body, func(n ast.Node) bool {
		switch node := n.(type) {
		case *ast.SendStmt:
			p.Reportf(rs.For,
				"range over map sends on a channel at %s; iteration order is nondeterministic — range sorted keys instead",
				p.Pkg.Fset.Position(node.Pos()))
			return false
		case *ast.CallExpr:
			if id, ok := node.Fun.(*ast.Ident); ok && id.Name == "append" {
				p.Reportf(rs.For,
					"range over map appends to a slice at %s; iteration order is nondeterministic — range sorted keys instead",
					p.Pkg.Fset.Position(node.Pos()))
				return false
			}
			if isTraceEmit(node) {
				p.Reportf(rs.For,
					"range over map emits a trace event at %s; iteration order is nondeterministic — range sorted keys instead",
					p.Pkg.Fset.Position(node.Pos()))
				return false
			}
		}
		return true
	})
}

// isTraceEmit recognizes the repo's trace-recording call, Trace.AddEvent
// (and Emit/Tracef-style names), by method name.
func isTraceEmit(call *ast.CallExpr) bool {
	sel, ok := call.Fun.(*ast.SelectorExpr)
	if !ok {
		return false
	}
	switch sel.Sel.Name {
	case "AddEvent", "Emit", "Tracef":
		return true
	}
	return false
}

// isMapExpr reports whether e is, by best-effort syntactic inference, a
// map: a map literal, a name locally declared with map type, a selector
// whose field name is map-typed anywhere in the loaded packages, or a
// call to a function whose single result is a map.
func isMapExpr(p *Pass, f *ast.File, e ast.Expr, mapNames map[string]bool) bool {
	switch x := e.(type) {
	case *ast.CompositeLit:
		_, ok := x.Type.(*ast.MapType)
		return ok
	case *ast.Ident:
		return mapNames[x.Name] || p.Index.mapVars[x.Name]
	case *ast.SelectorExpr:
		if id, ok := x.X.(*ast.Ident); ok {
			if p.Index.mapVars[id.Name+"."+x.Sel.Name] {
				return true
			}
		}
		return p.Index.mapFields[x.Sel.Name]
	case *ast.CallExpr:
		switch fun := x.Fun.(type) {
		case *ast.Ident:
			return p.Index.mapFuncs[fun.Name]
		case *ast.SelectorExpr:
			if id, ok := fun.X.(*ast.Ident); ok && p.Index.mapFuncs[id.Name+"."+fun.Sel.Name] {
				return true
			}
			return p.Index.mapFuncs[fun.Sel.Name]
		}
	}
	return false
}

// localMapNames collects names declared with map type inside fd: map
// parameters, `var m map[...]`, `m := make(map[...])`, `m := map[...]{}`
// and `m := f()` for f known to return a map.
func localMapNames(p *Pass, fd *ast.FuncDecl) map[string]bool {
	names := make(map[string]bool)
	if fd.Type.Params != nil {
		for _, field := range fd.Type.Params.List {
			if _, ok := field.Type.(*ast.MapType); !ok {
				continue
			}
			for _, n := range field.Names {
				names[n.Name] = true
			}
		}
	}
	ast.Inspect(fd.Body, func(n ast.Node) bool {
		switch node := n.(type) {
		case *ast.DeclStmt:
			gd, ok := node.Decl.(*ast.GenDecl)
			if !ok {
				return true
			}
			for _, spec := range gd.Specs {
				vs, ok := spec.(*ast.ValueSpec)
				if !ok {
					continue
				}
				if _, isMap := vs.Type.(*ast.MapType); isMap {
					for _, id := range vs.Names {
						names[id.Name] = true
					}
				}
			}
		case *ast.AssignStmt:
			if len(node.Lhs) != len(node.Rhs) {
				return true
			}
			for i, lhs := range node.Lhs {
				id, ok := lhs.(*ast.Ident)
				if !ok {
					continue
				}
				if rhsIsMap(p, node.Rhs[i]) {
					names[id.Name] = true
				}
			}
		}
		return true
	})
	return names
}

func rhsIsMap(p *Pass, e ast.Expr) bool {
	switch x := e.(type) {
	case *ast.CompositeLit:
		_, ok := x.Type.(*ast.MapType)
		return ok
	case *ast.CallExpr:
		if id, ok := x.Fun.(*ast.Ident); ok && id.Name == "make" && len(x.Args) >= 1 {
			_, isMap := x.Args[0].(*ast.MapType)
			return isMap
		}
		switch fun := x.Fun.(type) {
		case *ast.Ident:
			return p.Index.mapFuncs[fun.Name]
		case *ast.SelectorExpr:
			if id, ok := fun.X.(*ast.Ident); ok && p.Index.mapFuncs[id.Name+"."+fun.Sel.Name] {
				return true
			}
			return p.Index.mapFuncs[fun.Sel.Name]
		}
	}
	return false
}

// packageMapNames collects package-level map variables declared in f's
// package (the Index already has them package-qualified; this adds the
// file-local view).
func packageMapNames(p *Pass, f *ast.File) map[string]bool {
	names := make(map[string]bool)
	for _, decl := range f.Decls {
		gd, ok := decl.(*ast.GenDecl)
		if !ok {
			continue
		}
		for _, spec := range gd.Specs {
			vs, ok := spec.(*ast.ValueSpec)
			if !ok {
				continue
			}
			if _, isMap := vs.Type.(*ast.MapType); isMap {
				for _, id := range vs.Names {
					names[id.Name] = true
				}
			}
		}
	}
	return names
}
