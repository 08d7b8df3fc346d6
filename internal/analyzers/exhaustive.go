package analyzers

import (
	"go/ast"
	"go/token"
	"strings"
)

// Exhaustive guards the public enum surface: every switch over an enum
// type registered in an enumTable composite literal (the root package's
// enummap.go pattern) must either cover every declared constant of that
// type or carry a default case. Adding a fourth Load level or a new
// StreamClass then fails the lint at every switch that silently falls
// through, instead of failing at runtime in whatever experiment first
// hits the new value.
//
// Registration is discovered syntactically, two ways. A composite
// literal enumTable[P, C]{...} registers P (the root package's
// enummap.go pattern), and any package can opt a type in directly with
// a //ctmsvet:enum doc-comment line on its declaration:
//
//	//ctmsvet:enum
//	type Class int
//
// The constants of a registered type are every const declared with that
// type in the same package (iota inheritance included), except
// sentinels named num* (numClasses and friends count values, they are
// not values). Registration and checking are both per-package;
// cross-package switches over another package's enum are out of scope.
var Exhaustive = &Analyzer{
	Name: "exhaustive",
	Doc:  "switches over enumTable-registered enum types must cover every value or have a default",
	Tier: TierSyntactic,
	Run:  runExhaustive,
}

func runExhaustive(p *Pass) {
	registered := registeredEnums(p)
	if len(registered) == 0 {
		return
	}
	consts := enumConsts(p, registered)
	constOwner := make(map[string]string) // constant name -> enum type
	for typ, names := range consts {
		for _, n := range names {
			constOwner[n] = typ
		}
	}
	for _, f := range p.Pkg.Files {
		for _, decl := range f.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			varTypes := declaredTypes(fd)
			ast.Inspect(fd.Body, func(n ast.Node) bool {
				sw, ok := n.(*ast.SwitchStmt)
				if !ok || sw.Tag == nil {
					return true
				}
				checkSwitch(p, sw, registered, consts, constOwner, varTypes)
				return true
			})
		}
	}
}

// enumDirective marks a type declaration as an exhaustiveness-checked
// enum.
const enumDirective = "//ctmsvet:enum"

func hasEnumDirective(cgs ...*ast.CommentGroup) bool {
	for _, cg := range cgs {
		if cg == nil {
			continue
		}
		for _, c := range cg.List {
			if strings.TrimSpace(c.Text) == enumDirective {
				return true
			}
		}
	}
	return false
}

// registeredEnums finds every type name P used as the first type
// argument of an enumTable[P, C] composite literal, plus every type
// declaration carrying a //ctmsvet:enum directive.
func registeredEnums(p *Pass) map[string]bool {
	out := make(map[string]bool)
	for _, f := range p.Pkg.Files {
		for _, decl := range f.Decls {
			gd, ok := decl.(*ast.GenDecl)
			if !ok || gd.Tok != token.TYPE {
				continue
			}
			for _, spec := range gd.Specs {
				ts, ok := spec.(*ast.TypeSpec)
				if !ok {
					continue
				}
				if hasEnumDirective(gd.Doc, ts.Doc, ts.Comment) {
					out[ts.Name.Name] = true
				}
			}
		}
		ast.Inspect(f, func(n ast.Node) bool {
			cl, ok := n.(*ast.CompositeLit)
			if !ok {
				return true
			}
			var base ast.Expr
			var args []ast.Expr
			switch t := cl.Type.(type) {
			case *ast.IndexExpr:
				base, args = t.X, []ast.Expr{t.Index}
			case *ast.IndexListExpr:
				base, args = t.X, t.Indices
			default:
				return true
			}
			id, ok := base.(*ast.Ident)
			if !ok || id.Name != "enumTable" || len(args) == 0 {
				return true
			}
			if pub, ok := args[0].(*ast.Ident); ok {
				out[pub.Name] = true
			}
			return true
		})
	}
	return out
}

// enumConsts collects, in declaration order, the constants declared with
// each registered type. Within a const block, specs with no type and no
// values inherit the running type (the iota idiom); a spec with values
// but no explicit type resets it.
func enumConsts(p *Pass, registered map[string]bool) map[string][]string {
	out := make(map[string][]string)
	for _, f := range p.Pkg.Files {
		for _, decl := range f.Decls {
			gd, ok := decl.(*ast.GenDecl)
			if !ok || gd.Tok != token.CONST {
				continue
			}
			cur := ""
			for _, spec := range gd.Specs {
				vs, ok := spec.(*ast.ValueSpec)
				if !ok {
					continue
				}
				switch {
				case vs.Type != nil:
					cur = ""
					if id, ok := vs.Type.(*ast.Ident); ok && registered[id.Name] {
						cur = id.Name
					}
				case len(vs.Values) > 0:
					cur = ""
				}
				if cur == "" {
					continue
				}
				for _, n := range vs.Names {
					if n.Name == "_" || strings.HasPrefix(n.Name, "num") {
						continue // numClasses-style sentinels are counts, not values
					}
					out[cur] = append(out[cur], n.Name)
				}
			}
		}
	}
	return out
}

// declaredTypes maps identifiers to their declared type name within fd:
// parameters, receivers and `var x T` declarations. This is the typed
// half of switch-tag classification; the constant heuristic in
// checkSwitch is the fallback.
func declaredTypes(fd *ast.FuncDecl) map[string]string {
	types := make(map[string]string)
	record := func(fl *ast.FieldList) {
		if fl == nil {
			return
		}
		for _, field := range fl.List {
			id, ok := field.Type.(*ast.Ident)
			if !ok {
				continue
			}
			for _, n := range field.Names {
				types[n.Name] = id.Name
			}
		}
	}
	record(fd.Recv)
	record(fd.Type.Params)
	ast.Inspect(fd.Body, func(n ast.Node) bool {
		ds, ok := n.(*ast.DeclStmt)
		if !ok {
			return true
		}
		gd, ok := ds.Decl.(*ast.GenDecl)
		if !ok || gd.Tok != token.VAR {
			return true
		}
		for _, spec := range gd.Specs {
			vs, ok := spec.(*ast.ValueSpec)
			if !ok {
				continue
			}
			id, ok := vs.Type.(*ast.Ident)
			if !ok {
				continue
			}
			for _, name := range vs.Names {
				types[name.Name] = id.Name
			}
		}
		return true
	})
	return types
}

func checkSwitch(p *Pass, sw *ast.SwitchStmt, registered map[string]bool,
	consts map[string][]string, constOwner map[string]string, varTypes map[string]string) {

	enumType := ""
	switch tag := sw.Tag.(type) {
	case *ast.Ident:
		if t := varTypes[tag.Name]; registered[t] {
			enumType = t
		}
	case *ast.CallExpr:
		// A conversion like Protocol(s) pins the type.
		if id, ok := tag.Fun.(*ast.Ident); ok && registered[id.Name] {
			enumType = id.Name
		}
	}

	covered := make(map[string]bool)
	hasDefault := false
	for _, stmt := range sw.Body.List {
		cc, ok := stmt.(*ast.CaseClause)
		if !ok {
			continue
		}
		if cc.List == nil {
			hasDefault = true
			continue
		}
		for _, e := range cc.List {
			name := ""
			switch x := e.(type) {
			case *ast.Ident:
				name = x.Name
			case *ast.SelectorExpr:
				name = x.Sel.Name
			}
			if name == "" {
				continue
			}
			covered[name] = true
			if enumType == "" {
				if owner := constOwner[name]; owner != "" {
					enumType = owner
				}
			}
		}
	}
	if enumType == "" || hasDefault {
		return
	}
	var missing []string
	for _, c := range consts[enumType] {
		if !covered[c] {
			missing = append(missing, c)
		}
	}
	if len(missing) > 0 {
		p.Reportf(sw.Switch,
			"switch over %s misses %s; cover every value or add a default",
			enumType, strings.Join(missing, ", "))
	}
}
