// Package analysis is pcslint's engine: a dependency-free static-analyzer
// suite (stdlib go/parser + go/types only) that loads every package of the
// module and proves the project invariants the test suite otherwise only
// checks at runtime — the zero-allocation hot paths, the
// no-callbacks-under-locks rule, capture-clock discipline, ErrBadConfig
// wrapping on validation paths and the pcsmon_ metric naming convention —
// plus one it cannot check at all: no exported internal/ name is kept
// alive only by tests (dead-export).
//
// Each invariant is one Analyzer. Findings are reported as
// "file:line: analyzer: message" by cmd/pcslint, and deliberate exceptions
// are silenced in place with a //pcslint:ignore directive that must carry a
// reason and must actually suppress something (dead suppressions are
// findings themselves). See the README's "Static analysis" section for the
// catalog and directive syntax.
package analysis

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"sort"
)

// Analyzer names, used in findings, directives and the driver.
const (
	MetaAnalyzer     = "pcslint" // directive hygiene: malformed or dead suppressions
	HotpathName      = "hotpath"
	CallbackLockName = "callback-under-lock"
	ClockName        = "clock-discipline"
	ErrWrapName      = "errbadconfig"
	MetricNamesName  = "metric-names"
	DeadExportName   = "dead-export"
)

// Finding is one diagnostic: a position, the analyzer that produced it and
// a one-line message.
type Finding struct {
	Pos      token.Position
	Analyzer string
	Message  string
}

// Analyzer checks one module-wide invariant. Run sees the whole module —
// cross-package reasoning (the hotpath call graph) needs it — and reports
// raw findings; the engine applies suppressions and selection afterwards.
type Analyzer interface {
	Name() string
	Doc() string
	Run(m *Module, ctx *Context) []Finding
}

// Context carries the per-run shared state analyzers may consult: the
// suppression index (the hotpath walker prunes call edges at suppressed
// call sites).
type Context struct {
	Suppressions *Suppressions
}

// All returns the full analyzer suite in reporting order.
func All() []Analyzer {
	return []Analyzer{
		&HotpathAnalyzer{},
		&CallbackLockAnalyzer{},
		&ClockAnalyzer{},
		&ErrWrapAnalyzer{},
		&MetricNamesAnalyzer{},
		&DeadExportAnalyzer{},
	}
}

// Run executes the analyzers over the module, applies suppressions, adds
// directive-hygiene findings and returns the surviving findings sorted by
// position. keep filters which packages* findings are reported for (nil
// keeps everything); analyzers still see the whole module so cross-package
// invariants hold regardless of the selection.
func Run(m *Module, analyzers []Analyzer, keep func(pos token.Position) bool) []Finding {
	known := map[string]bool{MetaAnalyzer: true}
	for _, a := range analyzers {
		known[a.Name()] = true
	}
	ctx := &Context{Suppressions: scanSuppressions(m, known)}
	var out []Finding
	for _, a := range analyzers {
		for _, f := range a.Run(m, ctx) {
			if ctx.Suppressions.Suppressed(f.Analyzer, f.Pos) {
				continue
			}
			out = append(out, f)
		}
	}
	out = append(out, ctx.Suppressions.Unused()...)
	if keep != nil {
		kept := out[:0]
		for _, f := range out {
			if keep(f.Pos) {
				kept = append(kept, f)
			}
		}
		out = kept
	}
	sort.Slice(out, func(i, j int) bool {
		a, b := out[i], out[j]
		if a.Pos.Filename != b.Pos.Filename {
			return a.Pos.Filename < b.Pos.Filename
		}
		if a.Pos.Line != b.Pos.Line {
			return a.Pos.Line < b.Pos.Line
		}
		if a.Pos.Column != b.Pos.Column {
			return a.Pos.Column < b.Pos.Column
		}
		if a.Analyzer != b.Analyzer {
			return a.Analyzer < b.Analyzer
		}
		return a.Message < b.Message
	})
	return out
}

// ---- shared type/AST helpers ----

var errorType = types.Universe.Lookup("error").Type()

// isErrorType reports whether t is the built-in error interface.
func isErrorType(t types.Type) bool {
	return t != nil && types.Identical(t, errorType)
}

// callee resolves the called object of a call expression: a *types.Func
// for direct function and method calls, a *types.Var for calls through
// function values, a *types.Builtin for builtins, nil for conversions and
// unresolvable dynamic calls.
func callee(info *types.Info, call *ast.CallExpr) types.Object {
	switch fun := ast.Unparen(call.Fun).(type) {
	case *ast.Ident:
		return info.Uses[fun]
	case *ast.SelectorExpr:
		return info.Uses[fun.Sel]
	}
	return nil
}

// isPkgFunc reports whether obj is the function pkgPath.name.
func isPkgFunc(obj types.Object, pkgPath, name string) bool {
	fn, ok := obj.(*types.Func)
	if !ok || fn.Pkg() == nil {
		return false
	}
	return fn.Pkg().Path() == pkgPath && fn.Name() == name
}

// exprString renders a reference expression (identifiers and field
// selections) canonically — the key the lock tracker files held mutexes
// under. Non-reference shapes render positionally so distinct expressions
// never alias.
func exprString(e ast.Expr) string {
	switch e := ast.Unparen(e).(type) {
	case *ast.Ident:
		return e.Name
	case *ast.SelectorExpr:
		return exprString(e.X) + "." + e.Sel.Name
	case *ast.StarExpr:
		return "*" + exprString(e.X)
	case *ast.IndexExpr:
		return exprString(e.X) + "[" + exprString(e.Index) + "]"
	case *ast.BasicLit:
		return e.Value
	default:
		return fmt.Sprintf("expr@%d", e.Pos())
	}
}

// funcDisplayName renders a function for finding messages:
// pkg.Func or pkg.(*Recv).Method.
func funcDisplayName(fn *types.Func) string {
	if fn.Pkg() == nil {
		return fn.Name()
	}
	pkg := fn.Pkg().Name()
	sig, _ := fn.Type().(*types.Signature)
	if sig != nil && sig.Recv() != nil {
		rt := sig.Recv().Type()
		ptr := ""
		if p, ok := rt.(*types.Pointer); ok {
			rt = p.Elem()
			ptr = "*"
		}
		if named, ok := rt.(*types.Named); ok {
			if ptr != "" {
				return fmt.Sprintf("%s.(%s%s).%s", pkg, ptr, named.Obj().Name(), fn.Name())
			}
			return fmt.Sprintf("%s.%s.%s", pkg, named.Obj().Name(), fn.Name())
		}
	}
	return pkg + "." + fn.Name()
}
