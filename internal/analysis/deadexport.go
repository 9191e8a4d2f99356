package analysis

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"strings"
)

// DeadExportAnalyzer flags exported package-level funcs, types, vars and
// consts, and exported methods, that no non-test Go file refers to. It
// covers the packages under internal/ and, when the module builds a main
// package of its own, every other non-main package too (the root facade).
// Internal packages cannot be imported from outside the module tree, and a
// module that ships its programs is judged by what they call, so once the
// module's own packages and its nested referrer modules (Module.Referrers)
// stop naming a declaration, only tests keep it alive, and a test of code
// no program runs proves nothing about the detector. A library module with
// no program is left alone outside internal/: its exports are its product.
//
// A reference inside the declaration itself (recursion, a type's own
// receivers) does not count. A method is also live when its receiver type
// implements an interface the module can see that has a method of that
// name, since the call may be dynamic (String through fmt.Stringer, Error
// through error). A constant in a parenthesised group is live when any
// constant of its group is, so an index block stays whole.
type DeadExportAnalyzer struct{}

func (a *DeadExportAnalyzer) Name() string { return DeadExportName }

func (a *DeadExportAnalyzer) Doc() string {
	return "exported internal/... declarations, and every non-main package's when the module builds a program, must have a non-test referrer in the module or a nested replace module"
}

// exportDecl is one exported declaration in scope: its object, the
// source spans whose references do not count, and the const group it
// shares liveness with (nil outside a parenthesised const block).
type exportDecl struct {
	obj   types.Object
	kind  string
	own   []span
	group *ast.GenDecl
}

type span struct{ pos, end token.Pos }

func (a *DeadExportAnalyzer) Run(m *Module, _ *Context) []Finding {
	decls := exportedDecls(m)
	byObj := make(map[types.Object]*exportDecl, len(decls))
	for _, d := range decls {
		byObj[d.obj] = d
	}

	live := make(map[types.Object]bool)
	liveGroups := make(map[*ast.GenDecl]bool)
	for _, pkg := range m.allPackages() {
		for id, obj := range pkg.Info.Uses {
			d := byObj[origin(obj)]
			if d == nil || d.within(id.Pos()) {
				continue
			}
			live[d.obj] = true
			if d.group != nil {
				liveGroups[d.group] = true
			}
		}
	}

	ifaces := visibleInterfaces(m)
	var out []Finding
	for _, d := range decls {
		if live[d.obj] || (d.group != nil && liveGroups[d.group]) {
			continue
		}
		if fn, ok := d.obj.(*types.Func); ok && d.kind == "method" && implementsVisible(fn, ifaces) {
			continue
		}
		out = append(out, Finding{
			Pos:      m.Fset.Position(d.obj.Pos()),
			Analyzer: DeadExportName,
			Message:  fmt.Sprintf("exported %s %s has no non-test referrer", d.kind, displayName(d.obj)),
		})
	}
	return out
}

// within reports whether pos lies in one of the declaration's own spans.
func (d *exportDecl) within(pos token.Pos) bool {
	for _, s := range d.own {
		if s.pos <= pos && pos < s.end {
			return true
		}
	}
	return false
}

// exportedDecls collects every exported declaration of the module's
// internal/ packages, plus those of its other non-main packages when the
// module builds a main package, in source order.
func exportedDecls(m *Module) []*exportDecl {
	hasProgram := false
	for _, pkg := range m.Packages {
		if pkg.Types.Name() == "main" {
			hasProgram = true
			break
		}
	}
	var out []*exportDecl
	typeDecls := make(map[*types.TypeName]*exportDecl)
	for _, pkg := range m.Packages {
		rel := strings.TrimPrefix(pkg.Path, m.Path+"/")
		internal := rel == "internal" || strings.HasPrefix(rel, "internal/")
		if !internal && (!hasProgram || pkg.Types.Name() == "main") {
			continue
		}
		var recvs []*ast.FuncDecl
		for _, file := range pkg.Files {
			if IsGenerated(file) {
				continue
			}
			for _, decl := range file.Decls {
				switch decl := decl.(type) {
				case *ast.FuncDecl:
					if decl.Recv != nil {
						recvs = append(recvs, decl)
					}
					if !decl.Name.IsExported() {
						continue
					}
					kind := "func"
					if decl.Recv != nil {
						kind = "method"
					}
					if obj := pkg.Info.Defs[decl.Name]; obj != nil {
						out = append(out, &exportDecl{obj: obj, kind: kind, own: []span{{decl.Pos(), decl.End()}}})
					}
				case *ast.GenDecl:
					var group *ast.GenDecl
					if decl.Tok == token.CONST && decl.Lparen.IsValid() {
						group = decl
					}
					for _, spec := range decl.Specs {
						switch spec := spec.(type) {
						case *ast.TypeSpec:
							obj, ok := pkg.Info.Defs[spec.Name].(*types.TypeName)
							if !ok || !spec.Name.IsExported() {
								continue
							}
							d := &exportDecl{obj: obj, kind: "type", own: []span{{spec.Pos(), spec.End()}}}
							typeDecls[obj] = d
							out = append(out, d)
						case *ast.ValueSpec:
							for _, name := range spec.Names {
								obj := pkg.Info.Defs[name]
								if obj == nil || !name.IsExported() {
									continue
								}
								kind, own := "var", span{spec.Pos(), spec.End()}
								if decl.Tok == token.CONST {
									kind = "const"
									if group != nil {
										own = span{group.Pos(), group.End()}
									}
								}
								out = append(out, &exportDecl{obj: obj, kind: kind, own: []span{own}, group: group})
							}
						}
					}
				}
			}
		}
		// A type's own method receivers do not keep it alive.
		for _, fd := range recvs {
			rt := fd.Recv.List[0].Type
			if star, ok := rt.(*ast.StarExpr); ok {
				rt = star.X
			}
			id, ok := rt.(*ast.Ident)
			if !ok {
				continue
			}
			if tn, ok := pkg.Info.Uses[id].(*types.TypeName); ok && typeDecls[tn] != nil {
				d := typeDecls[tn]
				d.own = append(d.own, span{fd.Recv.Pos(), fd.Recv.End()})
			}
		}
	}
	return out
}

// origin maps an instantiated generic function or field back to its
// declaration.
func origin(obj types.Object) types.Object {
	switch o := obj.(type) {
	case *types.Func:
		return o.Origin()
	case *types.Var:
		return o.Origin()
	}
	return obj
}

// displayName renders an object as pkg.Name, or pkg.Recv.Method for
// methods.
func displayName(obj types.Object) string {
	if fn, ok := obj.(*types.Func); ok {
		return funcDisplayName(fn)
	}
	return obj.Pkg().Name() + "." + obj.Name()
}

// visibleInterfaces indexes, by method name, every non-empty interface the
// module can see: the interfaces declared at package level in the module,
// its referrers and everything they import, interface types written in
// their code (local declarations included), and the built-in error.
func visibleInterfaces(m *Module) map[string][]*types.Interface {
	out := make(map[string][]*types.Interface)
	seenType := make(map[types.Type]bool)
	add := func(t types.Type) {
		if t == nil || seenType[t] {
			return
		}
		seenType[t] = true
		iface, ok := t.Underlying().(*types.Interface)
		if !ok {
			return
		}
		for i := 0; i < iface.NumMethods(); i++ {
			name := iface.Method(i).Name()
			out[name] = append(out[name], iface)
		}
	}
	add(errorType)
	seenPkg := make(map[*types.Package]bool)
	var visit func(p *types.Package)
	visit = func(p *types.Package) {
		if seenPkg[p] {
			return
		}
		seenPkg[p] = true
		scope := p.Scope()
		for _, name := range scope.Names() {
			if tn, ok := scope.Lookup(name).(*types.TypeName); ok {
				add(tn.Type())
			}
		}
		for _, imp := range p.Imports() {
			visit(imp)
		}
	}
	for _, pkg := range m.allPackages() {
		visit(pkg.Types)
		for _, tv := range pkg.Info.Types {
			if tv.IsType() {
				add(tv.Type)
			}
		}
	}
	return out
}

// implementsVisible reports whether a method may be reached by dynamic
// dispatch: its receiver type (as a value or a pointer) implements a
// visible interface with a method of its name.
func implementsVisible(fn *types.Func, ifaces map[string][]*types.Interface) bool {
	recv := fn.Type().(*types.Signature).Recv().Type()
	if p, ok := recv.(*types.Pointer); ok {
		recv = p.Elem()
	}
	for _, iface := range ifaces[fn.Name()] {
		if types.Implements(recv, iface) || types.Implements(types.NewPointer(recv), iface) {
			return true
		}
	}
	return false
}
