package analyzers

import (
	"go/ast"
	"go/types"
	"strings"
)

// Locking enforces the `// guarded by <mu>` field-comment convention.
// A struct field whose doc or line comment says "guarded by mu" may
// only be touched while the sibling mutex field mu is held — either
// between an explicit Lock/Unlock pair or under a defer Unlock. The
// walker is branch-sensitive: paths that disagree about the lock state
// make it unknown, which suppresses reports rather than guessing.
//
// Findings:
//   - access to a guarded field while the named mutex is not held,
//   - return between Lock and Unlock without a defer (the early-return
//     leak that deadlocks the next caller),
//   - a function ending with the mutex still locked,
//   - "guarded by" naming a non-existent or non-mutex sibling,
//   - by-value copies of lock-bearing structs: value receivers, value
//     parameters, and *p dereference copies.
//
// Methods whose name ends in "Locked" are exempt from the hold check —
// the convention is that their caller holds the lock.
var Locking = &Analyzer{
	Name: "locking",
	Doc:  "fields marked `// guarded by <mu>` must only be touched with the named mutex held",
	Tier: TierTyped,
	Run:  runLocking,
}

type lockState uint8

const (
	lockNotHeld   lockState = iota // zero value: not held
	lockHeld                       // explicitly locked; must be unlocked before return
	lockHeldDefer                  // defer Unlock pending: held to function end
	lockUnclear                    // branches disagree; no reports either way
)

func runLocking(p *Pass) {
	guarded := collectGuarded(p)
	for _, f := range p.Pkg.Files {
		for _, decl := range f.Decls {
			if fd, ok := decl.(*ast.FuncDecl); ok && fd.Body != nil {
				checkLockDiscipline(p, fd, guarded)
			}
		}
	}
	checkLockCopies(p)
}

// collectGuarded maps each field carrying a "guarded by <mu>" comment
// to its guard's field name, validating that the guard is a sibling
// sync.Mutex or sync.RWMutex.
func collectGuarded(p *Pass) map[*types.Var]string {
	out := make(map[*types.Var]string)
	for _, f := range p.Pkg.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			st, ok := n.(*ast.StructType)
			if !ok {
				return true
			}
			for _, field := range st.Fields.List {
				guard := guardComment(field)
				if guard == "" {
					continue
				}
				if !hasMutexSibling(p, st, guard) {
					p.Reportf(field.Pos(), "guarded by %s: struct has no sibling sync.Mutex/RWMutex field named %s", guard, guard)
					continue
				}
				for _, name := range field.Names {
					if v, ok := p.ObjectOf(name).(*types.Var); ok {
						out[v] = guard
					}
				}
			}
			return true
		})
	}
	return out
}

func guardComment(field *ast.Field) string {
	for _, cg := range []*ast.CommentGroup{field.Doc, field.Comment} {
		if cg == nil {
			continue
		}
		for _, c := range cg.List {
			text := strings.TrimSpace(strings.TrimPrefix(c.Text, "//"))
			if rest, ok := strings.CutPrefix(text, "guarded by "); ok {
				name, _, _ := strings.Cut(strings.TrimSpace(rest), " ")
				return strings.TrimSuffix(name, ".")
			}
		}
	}
	return ""
}

func hasMutexSibling(p *Pass, st *ast.StructType, guard string) bool {
	for _, field := range st.Fields.List {
		for _, name := range field.Names {
			if name.Name != guard {
				continue
			}
			if v, ok := p.ObjectOf(name).(*types.Var); ok && isMutexType(v.Type()) {
				return true
			}
		}
	}
	return false
}

func isMutexType(t types.Type) bool {
	named, ok := t.(*types.Named)
	if !ok {
		return false
	}
	obj := named.Obj()
	if obj.Pkg() == nil || obj.Pkg().Path() != "sync" {
		return false
	}
	return obj.Name() == "Mutex" || obj.Name() == "RWMutex"
}

type lockEnv map[string]lockState

func (e lockEnv) clone() lockEnv {
	out := make(lockEnv, len(e))
	for k, v := range e {
		out[k] = v
	}
	return out
}

func mergeLockEnvs(a, b lockEnv) lockEnv {
	out := make(lockEnv)
	for g, av := range a {
		if av == b[g] {
			out[g] = av
		} else {
			out[g] = lockUnclear
		}
	}
	for g, bv := range b {
		if _, ok := a[g]; !ok {
			if bv == lockNotHeld {
				continue
			}
			out[g] = lockUnclear
		}
	}
	return out
}

type lockWalker struct {
	p       *Pass
	guarded map[*types.Var]string
}

func checkLockDiscipline(p *Pass, fd *ast.FuncDecl, guarded map[*types.Var]string) {
	if len(guarded) == 0 {
		return
	}
	w := &lockWalker{p: p, guarded: guarded}
	env := make(lockEnv)
	if strings.HasSuffix(fd.Name.Name, "Locked") {
		// convention: the caller holds every guard for *Locked methods
		for _, g := range guarded {
			env[g] = lockHeldDefer
		}
	}
	env, _ = w.stmts(fd.Body.List, env)
	for g, st := range env {
		if st == lockHeld {
			w.p.Reportf(fd.Body.Rbrace, "%s is still locked at the end of %s (missing Unlock)", g, fd.Name.Name)
		}
	}
}

func (w *lockWalker) stmts(list []ast.Stmt, env lockEnv) (lockEnv, bool) {
	for _, s := range list {
		var term bool
		env, term = w.stmt(s, env)
		if term {
			return env, true
		}
	}
	return env, false
}

func (w *lockWalker) stmt(s ast.Stmt, env lockEnv) (lockEnv, bool) {
	switch st := s.(type) {
	case *ast.ExprStmt:
		w.expr(st.X, env)
	case *ast.AssignStmt:
		for _, r := range st.Rhs {
			w.expr(r, env)
		}
		for _, l := range st.Lhs {
			w.expr(l, env)
		}
	case *ast.DeclStmt:
		if gd, ok := st.Decl.(*ast.GenDecl); ok {
			for _, spec := range gd.Specs {
				if vs, ok := spec.(*ast.ValueSpec); ok {
					for _, v := range vs.Values {
						w.expr(v, env)
					}
				}
			}
		}
	case *ast.ReturnStmt:
		for _, r := range st.Results {
			w.expr(r, env)
		}
		for g, state := range env {
			if state == lockHeld {
				w.p.Reportf(st.Pos(), "return while %s is locked (no defer Unlock on this path)", g)
			}
		}
		return env, true
	case *ast.DeferStmt:
		if g, op := w.mutexOp(st.Call); g != "" && (op == "Unlock" || op == "RUnlock") {
			env[g] = lockHeldDefer
		} else {
			w.expr(st.Call, env)
		}
	case *ast.IfStmt:
		if st.Init != nil {
			env, _ = w.stmt(st.Init, env)
		}
		w.expr(st.Cond, env)
		thenEnv, t1 := w.stmts(st.Body.List, env.clone())
		elseEnv := env.clone()
		t2 := false
		switch e := st.Else.(type) {
		case *ast.BlockStmt:
			elseEnv, t2 = w.stmts(e.List, elseEnv)
		case *ast.IfStmt:
			elseEnv, t2 = w.stmt(e, elseEnv)
		}
		switch {
		case t1 && t2:
			return env, true
		case t1:
			return elseEnv, false
		case t2:
			return thenEnv, false
		default:
			return mergeLockEnvs(thenEnv, elseEnv), false
		}
	case *ast.ForStmt:
		if st.Init != nil {
			env, _ = w.stmt(st.Init, env)
		}
		w.expr(st.Cond, env)
		bodyEnv, term := w.stmts(st.Body.List, env.clone())
		if term {
			return env, false
		}
		return mergeLockEnvs(env, bodyEnv), false
	case *ast.RangeStmt:
		w.expr(st.X, env)
		bodyEnv, term := w.stmts(st.Body.List, env.clone())
		if term {
			return env, false
		}
		return mergeLockEnvs(env, bodyEnv), false
	case *ast.SwitchStmt:
		if st.Init != nil {
			env, _ = w.stmt(st.Init, env)
		}
		w.expr(st.Tag, env)
		return w.lockCases(st.Body, env)
	case *ast.TypeSwitchStmt:
		return w.lockCases(st.Body, env)
	case *ast.SelectStmt:
		return w.lockCases(st.Body, env)
	case *ast.BlockStmt:
		return w.stmts(st.List, env)
	case *ast.GoStmt:
		w.expr(st.Call, env)
	case *ast.SendStmt:
		w.expr(st.Chan, env)
		w.expr(st.Value, env)
	case *ast.LabeledStmt:
		return w.stmt(st.Stmt, env)
	case *ast.BranchStmt:
		return env, true
	case *ast.IncDecStmt:
		w.expr(st.X, env)
	}
	return env, false
}

func (w *lockWalker) lockCases(body *ast.BlockStmt, env lockEnv) (lockEnv, bool) {
	var merged lockEnv
	hasDefault := false
	for _, stmt := range body.List {
		var list []ast.Stmt
		caseEnv := env.clone()
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
				caseEnv, _ = w.stmt(cc.Comm, caseEnv)
			} else {
				hasDefault = true
			}
			list = cc.Body
		}
		caseEnv, term := w.stmts(list, caseEnv)
		if term {
			continue
		}
		if merged == nil {
			merged = caseEnv
		} else {
			merged = mergeLockEnvs(merged, caseEnv)
		}
	}
	if !hasDefault {
		if merged == nil {
			merged = env
		} else {
			merged = mergeLockEnvs(merged, env)
		}
	}
	if merged == nil {
		return env, len(body.List) > 0
	}
	return merged, false
}

// mutexOp recognizes s.mu.Lock() / mu.RUnlock() etc, returning the
// mutex field/variable name and the operation.
func (w *lockWalker) mutexOp(call *ast.CallExpr) (string, string) {
	sel, ok := call.Fun.(*ast.SelectorExpr)
	if !ok {
		return "", ""
	}
	op := sel.Sel.Name
	switch op {
	case "Lock", "Unlock", "RLock", "RUnlock":
	default:
		return "", ""
	}
	var name string
	var t types.Type
	switch base := ast.Unparen(sel.X).(type) {
	case *ast.SelectorExpr:
		name = base.Sel.Name
		t = w.p.TypeOf(base)
	case *ast.Ident:
		name = base.Name
		t = w.p.TypeOf(base)
	default:
		return "", ""
	}
	if t == nil {
		return "", ""
	}
	if ptr, ok := t.(*types.Pointer); ok {
		t = ptr.Elem()
	}
	if !isMutexType(t) {
		return "", ""
	}
	return name, op
}

func (w *lockWalker) expr(e ast.Expr, env lockEnv) {
	if e == nil {
		return
	}
	switch x := ast.Unparen(e).(type) {
	case *ast.CallExpr:
		if g, op := w.mutexOp(x); g != "" {
			switch op {
			case "Lock", "RLock":
				env[g] = lockHeld
			case "Unlock", "RUnlock":
				env[g] = lockNotHeld
			}
			return
		}
		w.expr(x.Fun, env)
		for _, a := range x.Args {
			w.expr(a, env)
		}
	case *ast.SelectorExpr:
		w.checkAccess(x, env)
		w.expr(x.X, env)
	case *ast.FuncLit:
		// a closure runs in an unknown lock context: walk it with every
		// guard unclear so nothing inside is reported either way
		inner := make(lockEnv)
		for _, g := range w.guarded {
			inner[g] = lockUnclear
		}
		w.stmts(x.Body.List, inner)
	case *ast.UnaryExpr:
		w.expr(x.X, env)
	case *ast.BinaryExpr:
		w.expr(x.X, env)
		w.expr(x.Y, env)
	case *ast.IndexExpr:
		w.expr(x.X, env)
		w.expr(x.Index, env)
	case *ast.SliceExpr:
		w.expr(x.X, env)
		w.expr(x.Low, env)
		w.expr(x.High, env)
		w.expr(x.Max, env)
	case *ast.StarExpr:
		w.expr(x.X, env)
	case *ast.TypeAssertExpr:
		w.expr(x.X, env)
	case *ast.CompositeLit:
		for _, elt := range x.Elts {
			w.expr(elt, env)
		}
	case *ast.KeyValueExpr:
		w.expr(x.Key, env)
		w.expr(x.Value, env)
	}
}

func (w *lockWalker) checkAccess(sel *ast.SelectorExpr, env lockEnv) {
	v, ok := w.p.ObjectOf(sel.Sel).(*types.Var)
	if !ok {
		return
	}
	guard, ok := w.guarded[v]
	if !ok {
		return
	}
	switch env[guard] {
	case lockHeld, lockHeldDefer, lockUnclear:
	default:
		w.p.Reportf(sel.Sel.Pos(), "%s is guarded by %s, which is not held here", v.Name(), guard)
	}
}

// checkLockCopies flags by-value copies of lock-bearing structs: value
// receivers, value parameters, and `x := *p` dereference copies.
func checkLockCopies(p *Pass) {
	for _, f := range p.Pkg.Files {
		for _, decl := range f.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok {
				continue
			}
			if fd.Recv != nil {
				for _, field := range fd.Recv.List {
					if t := p.TypeOf(field.Type); t != nil && carriesLock(t) {
						p.Reportf(field.Pos(), "value receiver copies lock-bearing struct %s; use a pointer receiver", types.TypeString(t, nil))
					}
				}
			}
			if fd.Type.Params != nil {
				for _, field := range fd.Type.Params.List {
					if t := p.TypeOf(field.Type); t != nil && carriesLock(t) {
						p.Reportf(field.Pos(), "parameter passes lock-bearing struct %s by value", types.TypeString(t, nil))
					}
				}
			}
			if fd.Body == nil {
				continue
			}
			ast.Inspect(fd.Body, func(n ast.Node) bool {
				as, ok := n.(*ast.AssignStmt)
				if !ok {
					return true
				}
				for _, r := range as.Rhs {
					star, ok := ast.Unparen(r).(*ast.StarExpr)
					if !ok {
						continue
					}
					if t := p.TypeOf(star); t != nil && carriesLock(t) {
						p.Reportf(r.Pos(), "dereference copies lock-bearing struct %s", types.TypeString(t, nil))
					}
				}
				return true
			})
		}
	}
}

// carriesLock reports whether t is (or directly embeds) a struct with a
// sync.Mutex/RWMutex field.
func carriesLock(t types.Type) bool {
	if isMutexType(t) {
		return true
	}
	st, ok := t.Underlying().(*types.Struct)
	if !ok {
		return false
	}
	for i := 0; i < st.NumFields(); i++ {
		if isMutexType(st.Field(i).Type()) {
			return true
		}
	}
	return false
}
