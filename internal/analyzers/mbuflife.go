package analyzers

import (
	"go/ast"
	"go/token"
	"go/types"
)

// Mbuflife is the ownership analyzer for mbuf chains — the paper's §2
// data-path argument made checkable. Chains of fixed DMA buffers are
// handed driver-to-driver by pointer; the whole budget collapses if
// anyone leaks or double-frees them. A *kernel.Chain obtained from a
// kernel.Pool method (AllocNoWait) must, on every path, be consumed
// exactly once:
//
//   - freed via Pool.Free,
//   - returned to the caller,
//   - stored into a composite literal or a field/slot,
//   - handed off as a call argument, channel send, or closure capture
//     (the Packet.Done pattern: the callback that frees it owns it).
//
// The analysis is intraprocedural and deliberately conservative: once a
// chain is handed off it is forgotten, and when two branches disagree
// about a chain's fate the variable stops being tracked rather than
// guessing. What it does flag is exactly the rot the tree has to guard
// against: a chain leaked on an early error return, a chain used after
// Pool.Free, and a chain freed twice. The nil-result contract of
// AllocNoWait is modeled — `if ch == nil { return }` does not count as
// a leak.
var Mbuflife = &Analyzer{
	Name: "mbuflife",
	Doc:  "chains from Pool.AllocNoWait must be freed, returned, stored or handed off exactly once on every path",
	Tier: TierTyped,
	Run:  runMbuflife,
}

type chainState uint8

const (
	chainOwned chainState = iota
	chainFreed
	chainDeferFreed
	chainMixed // branches disagree; tracking stops
)

type chainVal struct {
	state    chainState
	allocPos token.Pos
}

type mbufEnv map[*types.Var]chainVal

func (e mbufEnv) clone() mbufEnv {
	out := make(mbufEnv, len(e))
	for k, v := range e {
		out[k] = v
	}
	return out
}

type mbufWalker struct {
	p        *Pass
	reported map[token.Pos]bool // alloc sites already reported as leaks
}

func runMbuflife(p *Pass) {
	w := &mbufWalker{p: p, reported: make(map[token.Pos]bool)}
	for _, f := range p.Pkg.Files {
		for _, decl := range f.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			w.funcBody(fd.Body)
		}
	}
}

// isChainPointer reports whether t is *kernel.Chain. Matching is by
// package name and type name, not import path, so the typed fixtures'
// miniature kernel package exercises the same code path as the real
// one.
func isChainPointer(t types.Type) bool {
	ptr, ok := t.(*types.Pointer)
	if !ok {
		return false
	}
	named, ok := ptr.Elem().(*types.Named)
	if !ok {
		return false
	}
	obj := named.Obj()
	return obj.Name() == "Chain" && obj.Pkg() != nil && obj.Pkg().Name() == "kernel"
}

// poolMethod returns the method name if call invokes a method on
// kernel.Pool (Free, AllocNoWait, ...), else "".
func (w *mbufWalker) poolMethod(call *ast.CallExpr) string {
	sel, ok := call.Fun.(*ast.SelectorExpr)
	if !ok {
		return ""
	}
	fn, ok := w.p.ObjectOf(sel.Sel).(*types.Func)
	if !ok {
		return ""
	}
	sig, ok := fn.Type().(*types.Signature)
	if !ok || sig.Recv() == nil {
		return ""
	}
	rt := sig.Recv().Type()
	if ptr, ok := rt.(*types.Pointer); ok {
		rt = ptr.Elem()
	}
	named, ok := rt.(*types.Named)
	if !ok {
		return ""
	}
	obj := named.Obj()
	if obj.Name() != "Pool" || obj.Pkg() == nil || obj.Pkg().Name() != "kernel" {
		return ""
	}
	return fn.Name()
}

// isAllocCall reports whether call's single result is a chain pointer —
// the ownership source.
func (w *mbufWalker) isAllocCall(call *ast.CallExpr) bool {
	t := w.p.TypeOf(call)
	return t != nil && isChainPointer(t)
}

// chainVar resolves e to a tracked chain variable.
func (w *mbufWalker) chainVar(e ast.Expr, env mbufEnv) (*types.Var, bool) {
	id, ok := ast.Unparen(e).(*ast.Ident)
	if !ok {
		return nil, false
	}
	v, ok := w.p.ObjectOf(id).(*types.Var)
	if !ok {
		return nil, false
	}
	_, tracked := env[v]
	return v, tracked
}

func (w *mbufWalker) pos(p token.Pos) string {
	position := w.p.Pkg.Fset.Position(p)
	return position.Filename[len(position.Filename)-len(filepathBase(position.Filename)):] + ":" + itoa(position.Line)
}

func filepathBase(p string) string {
	for i := len(p) - 1; i >= 0; i-- {
		if p[i] == '/' || p[i] == '\\' {
			return p[i+1:]
		}
	}
	return p
}

func itoa(n int) string {
	if n == 0 {
		return "0"
	}
	var b [20]byte
	i := len(b)
	for n > 0 {
		i--
		b[i] = byte('0' + n%10)
		n /= 10
	}
	return string(b[i:])
}

func (w *mbufWalker) leak(v *types.Var, cv chainVal, at token.Pos) {
	if cv.state != chainOwned || w.reported[cv.allocPos] {
		return
	}
	w.reported[cv.allocPos] = true
	w.p.Reportf(cv.allocPos,
		"chain %s is never freed, returned, stored or handed off on the path reaching line %d",
		v.Name(), w.p.Pkg.Fset.Position(at).Line)
}

func (w *mbufWalker) leakAll(env mbufEnv, at token.Pos) {
	for v, cv := range env {
		w.leak(v, cv, at)
	}
}

// useVar records a read of v; reading a freed chain is a finding.
func (w *mbufWalker) useVar(e ast.Expr, v *types.Var, env mbufEnv) {
	if env[v].state == chainFreed {
		w.p.Reportf(e.Pos(), "chain %s used after Free (allocated at %s)", v.Name(), w.pos(env[v].allocPos))
		env[v] = chainVal{state: chainMixed, allocPos: env[v].allocPos}
	}
}

// moveVar hands ownership of v off (call argument, store, send,
// capture): the chain is someone else's problem now, so tracking stops.
func (w *mbufWalker) moveVar(e ast.Expr, v *types.Var, env mbufEnv) {
	w.useVar(e, v, env)
	delete(env, v)
}

// funcBody analyzes one function or closure body in a fresh
// environment.
func (w *mbufWalker) funcBody(body *ast.BlockStmt) {
	env, terminated := w.stmts(body.List, make(mbufEnv))
	if !terminated {
		w.leakAll(env, body.Rbrace)
	}
}

// stmts walks a statement list, returning the resulting environment and
// whether the list definitely terminated (return/panic/branch). Chains
// defined in this list that are still owned when it ends leak: the
// variable goes out of scope (or is re-made next loop iteration).
func (w *mbufWalker) stmts(list []ast.Stmt, env mbufEnv) (mbufEnv, bool) {
	var defined []*types.Var
	for _, s := range list {
		var term bool
		env, term = w.stmt(s, env, &defined)
		if term {
			return env, true
		}
	}
	for _, v := range defined {
		if cv, ok := env[v]; ok {
			w.leak(v, cv, list[len(list)-1].End())
			delete(env, v)
		}
	}
	return env, false
}

func (w *mbufWalker) stmt(s ast.Stmt, env mbufEnv, defined *[]*types.Var) (mbufEnv, bool) {
	switch st := s.(type) {
	case *ast.ExprStmt:
		w.expr(st.X, env)
	case *ast.AssignStmt:
		w.assign(st, env, defined)
	case *ast.DeclStmt:
		if gd, ok := st.Decl.(*ast.GenDecl); ok {
			for _, spec := range gd.Specs {
				vs, ok := spec.(*ast.ValueSpec)
				if !ok {
					continue
				}
				for i, name := range vs.Names {
					if i < len(vs.Values) {
						w.assignOne(name, vs.Values[i], true, env, defined)
					}
				}
			}
		}
	case *ast.ReturnStmt:
		for _, r := range st.Results {
			if v, ok := w.chainVar(r, env); ok {
				w.moveVar(r, v, env) // returned: the caller owns it now
				continue
			}
			w.expr(r, env)
		}
		w.leakAll(env, st.Pos())
		return env, true
	case *ast.IfStmt:
		return w.ifStmt(st, env, defined)
	case *ast.ForStmt:
		if st.Init != nil {
			env, _ = w.stmt(st.Init, env, defined)
		}
		w.expr(st.Cond, env)
		bodyEnv, term := w.stmts(st.Body.List, env.clone())
		if st.Post != nil && !term {
			bodyEnv, _ = w.stmt(st.Post, bodyEnv, defined)
		}
		if term {
			return env, false
		}
		return mergeEnvs(env, bodyEnv), false
	case *ast.RangeStmt:
		w.expr(st.X, env)
		bodyEnv, term := w.stmts(st.Body.List, env.clone())
		if term {
			return env, false
		}
		return mergeEnvs(env, bodyEnv), false
	case *ast.SwitchStmt:
		if st.Init != nil {
			env, _ = w.stmt(st.Init, env, defined)
		}
		w.expr(st.Tag, env)
		return w.caseBodies(st.Body, env)
	case *ast.TypeSwitchStmt:
		return w.caseBodies(st.Body, env)
	case *ast.SelectStmt:
		return w.caseBodies(st.Body, env)
	case *ast.BlockStmt:
		return w.stmts(st.List, env)
	case *ast.DeferStmt:
		w.deferCall(st.Call, env)
	case *ast.GoStmt:
		w.expr(st.Call, env)
	case *ast.SendStmt:
		w.expr(st.Chan, env)
		if v, ok := w.chainVar(st.Value, env); ok {
			w.moveVar(st.Value, v, env)
		} else {
			w.expr(st.Value, env)
		}
	case *ast.LabeledStmt:
		return w.stmt(st.Stmt, env, defined)
	case *ast.BranchStmt:
		// break/continue/goto leave the list abnormally; stop tracking
		// this path rather than mis-reporting scope-exit leaks.
		return env, true
	case *ast.IncDecStmt:
		w.expr(st.X, env)
	}
	return env, false
}

func (w *mbufWalker) ifStmt(st *ast.IfStmt, env mbufEnv, defined *[]*types.Var) (mbufEnv, bool) {
	if st.Init != nil {
		env, _ = w.stmt(st.Init, env, defined)
	}
	w.expr(st.Cond, env)
	thenEnv := env.clone()
	elseEnv := env.clone()
	// Model the AllocNoWait contract: inside `if ch == nil` there is no
	// chain to leak; inside `if ch != nil` the else path has none.
	if v, op := w.nilCheckVar(st.Cond, env); v != nil {
		if op == token.EQL {
			delete(thenEnv, v)
		} else {
			delete(elseEnv, v)
		}
	}
	thenEnv, t1 := w.stmts(st.Body.List, thenEnv)
	t2 := false
	switch e := st.Else.(type) {
	case *ast.BlockStmt:
		elseEnv, t2 = w.stmts(e.List, elseEnv)
	case *ast.IfStmt:
		var elseDefined []*types.Var
		elseEnv, t2 = w.ifStmt(e, elseEnv, &elseDefined)
	}
	switch {
	case t1 && t2:
		return env, true
	case t1:
		return elseEnv, false
	case t2:
		return thenEnv, false
	default:
		return mergeEnvs(thenEnv, elseEnv), false
	}
}

// caseBodies analyzes each case clause against a clone of env and
// merges the survivors (plus the no-case-taken path when there is no
// default clause).
func (w *mbufWalker) caseBodies(body *ast.BlockStmt, env mbufEnv) (mbufEnv, bool) {
	merged := mbufEnv(nil)
	hasDefault := false
	all := true
	for _, stmt := range body.List {
		var list []ast.Stmt
		switch cc := stmt.(type) {
		case *ast.CaseClause:
			for _, e := range cc.List {
				w.expr(e, env)
			}
			if cc.List == nil {
				hasDefault = true
			}
			list = cc.Body
		case *ast.CommClause:
			if cc.Comm != nil {
				var d []*types.Var
				env, _ = w.stmt(cc.Comm, env.clone(), &d)
			} else {
				hasDefault = true
			}
			list = cc.Body
		}
		caseEnv, term := w.stmts(list, env.clone())
		if term {
			continue
		}
		all = false
		if merged == nil {
			merged = caseEnv
		} else {
			merged = mergeEnvs(merged, caseEnv)
		}
	}
	if !hasDefault {
		all = false
		if merged == nil {
			merged = env
		} else {
			merged = mergeEnvs(merged, env)
		}
	}
	if merged == nil {
		return env, all && len(body.List) > 0
	}
	return merged, false
}

// mergeEnvs joins two branch outcomes. A chain both branches agree on
// keeps its state; one they disagree on — or that only one branch still
// tracks — becomes chainMixed, which suppresses all further reports for
// it (conservative by design).
func mergeEnvs(a, b mbufEnv) mbufEnv {
	out := make(mbufEnv)
	for v, av := range a {
		if bv, ok := b[v]; ok {
			if av.state == bv.state {
				out[v] = av
			} else {
				out[v] = chainVal{state: chainMixed, allocPos: av.allocPos}
			}
		} else {
			out[v] = chainVal{state: chainMixed, allocPos: av.allocPos}
		}
	}
	for v, bv := range b {
		if _, ok := a[v]; !ok {
			out[v] = chainVal{state: chainMixed, allocPos: bv.allocPos}
		}
	}
	return out
}

// nilCheckVar recognizes `v == nil` / `v != nil` over a tracked chain.
func (w *mbufWalker) nilCheckVar(cond ast.Expr, env mbufEnv) (*types.Var, token.Token) {
	be, ok := ast.Unparen(cond).(*ast.BinaryExpr)
	if !ok || (be.Op != token.EQL && be.Op != token.NEQ) {
		return nil, token.ILLEGAL
	}
	x, y := ast.Unparen(be.X), ast.Unparen(be.Y)
	if isNilIdent(y) {
		if v, ok := w.chainVar(x, env); ok {
			return v, be.Op
		}
	}
	if isNilIdent(x) {
		if v, ok := w.chainVar(y, env); ok {
			return v, be.Op
		}
	}
	return nil, token.ILLEGAL
}

func isNilIdent(e ast.Expr) bool {
	id, ok := e.(*ast.Ident)
	return ok && id.Name == "nil"
}

func (w *mbufWalker) assign(st *ast.AssignStmt, env mbufEnv, defined *[]*types.Var) {
	if len(st.Lhs) == len(st.Rhs) {
		for i := range st.Lhs {
			w.assignOne(st.Lhs[i], st.Rhs[i], st.Tok == token.DEFINE, env, defined)
		}
		return
	}
	for _, r := range st.Rhs {
		w.expr(r, env)
	}
}

// isLocalChainVar reports whether v is a function-local variable.
// Stores into package-level variables or fields are escapes — the
// chain has a longer-lived owner now — so only locals are tracked.
func isLocalChainVar(v *types.Var) bool {
	return v != nil && !v.IsField() && v.Pkg() != nil && v.Parent() != v.Pkg().Scope()
}

func (w *mbufWalker) assignOne(lhs, rhs ast.Expr, define bool, env mbufEnv, defined *[]*types.Var) {
	lhsID, _ := ast.Unparen(lhs).(*ast.Ident)
	var lhsVar *types.Var
	if lhsID != nil && lhsID.Name != "_" {
		lhsVar, _ = w.p.ObjectOf(lhsID).(*types.Var)
		if !isLocalChainVar(lhsVar) {
			lhsVar = nil // store to package state: escape, stop tracking
		}
	}

	// ch := pool.AllocNoWait(n): a new owned chain. Overwriting a chain
	// that is still owned leaks the old one.
	if call, ok := ast.Unparen(rhs).(*ast.CallExpr); ok && w.isAllocCall(call) && w.poolMethod(call) != "" {
		for _, a := range call.Args {
			w.expr(a, env)
		}
		if lhsVar != nil {
			if old, ok := env[lhsVar]; ok {
				w.leak(lhsVar, old, lhs.Pos())
			}
			env[lhsVar] = chainVal{state: chainOwned, allocPos: rhs.Pos()}
			if define {
				*defined = append(*defined, lhsVar)
			}
		}
		return
	}

	// ch2 := ch: ownership moves with the alias.
	if rhsVar, ok := w.chainVar(rhs, env); ok {
		if lhsID != nil && lhsID.Name == "_" {
			w.useVar(rhs, rhsVar, env) // `_ = ch` reads, doesn't consume
			return
		}
		cv := env[rhsVar]
		w.useVar(rhs, rhsVar, env)
		delete(env, rhsVar)
		if lhsVar != nil {
			env[lhsVar] = cv
			if define {
				*defined = append(*defined, lhsVar)
			}
		}
		return
	}

	w.expr(rhs, env)
	if lhsVar == nil && lhsID == nil {
		w.expr(lhs, env) // selector/index target: record uses of its base
	}
}

func (w *mbufWalker) deferCall(call *ast.CallExpr, env mbufEnv) {
	if w.poolMethod(call) == "Free" && len(call.Args) == 1 {
		if v, ok := w.chainVar(call.Args[0], env); ok {
			cv := env[v]
			if cv.state == chainFreed || cv.state == chainDeferFreed {
				w.p.Reportf(call.Pos(), "chain %s freed again (allocated at %s)", v.Name(), w.pos(cv.allocPos))
				return
			}
			// defer runs at every exit: the chain is consumed on all
			// paths, and reads before function end stay legal.
			env[v] = chainVal{state: chainDeferFreed, allocPos: cv.allocPos}
			return
		}
	}
	w.expr(call, env)
}

func (w *mbufWalker) expr(e ast.Expr, env mbufEnv) {
	if e == nil {
		return
	}
	switch x := ast.Unparen(e).(type) {
	case *ast.Ident:
		if v, ok := w.chainVar(x, env); ok {
			w.useVar(x, v, env)
		}
	case *ast.CallExpr:
		w.call(x, env)
	case *ast.FuncLit:
		w.funcLit(x, env)
	case *ast.CompositeLit:
		for _, elt := range x.Elts {
			val := elt
			if kv, ok := elt.(*ast.KeyValueExpr); ok {
				w.expr(kv.Key, env)
				val = kv.Value
			}
			if v, ok := w.chainVar(val, env); ok {
				w.moveVar(val, v, env) // stored: ownership rides with the literal
				continue
			}
			w.expr(val, env)
		}
	case *ast.UnaryExpr:
		w.expr(x.X, env)
	case *ast.BinaryExpr:
		w.expr(x.X, env)
		w.expr(x.Y, env)
	case *ast.SelectorExpr:
		w.expr(x.X, env)
	case *ast.IndexExpr:
		w.expr(x.X, env)
		w.expr(x.Index, env)
	case *ast.IndexListExpr:
		w.expr(x.X, env)
		for _, i := range x.Indices {
			w.expr(i, env)
		}
	case *ast.SliceExpr:
		w.expr(x.X, env)
		w.expr(x.Low, env)
		w.expr(x.High, env)
		w.expr(x.Max, env)
	case *ast.StarExpr:
		w.expr(x.X, env)
	case *ast.TypeAssertExpr:
		w.expr(x.X, env)
	case *ast.KeyValueExpr:
		w.expr(x.Key, env)
		w.expr(x.Value, env)
	}
}

func (w *mbufWalker) call(call *ast.CallExpr, env mbufEnv) {
	if w.poolMethod(call) == "Free" && len(call.Args) == 1 {
		if v, ok := w.chainVar(call.Args[0], env); ok {
			cv := env[v]
			switch cv.state {
			case chainFreed, chainDeferFreed:
				w.p.Reportf(call.Pos(), "chain %s freed again (allocated at %s)", v.Name(), w.pos(cv.allocPos))
				env[v] = chainVal{state: chainMixed, allocPos: cv.allocPos}
			case chainOwned:
				env[v] = chainVal{state: chainFreed, allocPos: cv.allocPos}
			}
			return
		}
	}
	w.expr(call.Fun, env)
	for _, a := range call.Args {
		if v, ok := w.chainVar(a, env); ok {
			w.moveVar(a, v, env) // handed off to the callee
			continue
		}
		w.expr(a, env)
	}
}

// funcLit handles a closure: capturing a tracked chain hands it off
// (the Done-callback pattern — the closure that frees it owns it), and
// the closure's own body is analyzed as a fresh function.
func (w *mbufWalker) funcLit(lit *ast.FuncLit, env mbufEnv) {
	ast.Inspect(lit.Body, func(n ast.Node) bool {
		id, ok := n.(*ast.Ident)
		if !ok {
			return true
		}
		if v, ok := w.p.ObjectOf(id).(*types.Var); ok {
			if _, tracked := env[v]; tracked {
				delete(env, v)
			}
		}
		return true
	})
	w.funcBody(lit.Body)
}
